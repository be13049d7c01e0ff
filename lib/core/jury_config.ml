(* The one JURY configuration record. [make] is its only constructor
   (the type is private in the interface) and does all the validation,
   so consumers read the fields without re-checking them. *)

open Jury_sim

type retransmit = {
  fraction : float;
  backoff : float;
  max_retries : int;
}

type t = {
  k : int;
  timeout : Time.t;
  adaptive_timeout : bool;
  state_aware : bool;
  nondet_rule : bool;
  random_secondaries : bool;
  deterministic_latencies : bool;
  policies : Jury_policy.Engine.t;
  encapsulation : bool;
  channel : Channel.profile;
  retransmit : retransmit option;
  degraded_quorum : int option;
  max_inflight : int option;
  batch_window : Time.t option;
  pipeline_jobs : int;
  election : Jury_controller.Cluster.election_config option;
}

let retransmit ?(fraction = 0.4) ?(backoff = 2.0) ?(max_retries = 2) () =
  if not (fraction > 0. && fraction <= 1.) then
    invalid_arg "Jury_config.retransmit: fraction must be in (0, 1]";
  if not (backoff >= 1.) then
    invalid_arg "Jury_config.retransmit: backoff must be >= 1";
  if max_retries < 0 then
    invalid_arg "Jury_config.retransmit: max_retries must be >= 0";
  { fraction; backoff; max_retries }

let make ?(k = 2) ?timeout ?(adaptive_timeout = false) ?(state_aware = true)
    ?(nondet_rule = true) ?random_secondaries ?policies
    ?(encapsulation = false) ?drop ?duplicate ?jitter_us ?retransmit
    ?degraded_quorum ?max_inflight ?batch
    ?(deterministic_latencies = false) ?(pipeline_jobs = 1) ?election () =
  if k < 0 then invalid_arg "Jury_config.make: k must be >= 0";
  let policies =
    match policies with Some p -> p | None -> Jury_policy.Engine.create []
  in
  (* Compile the policy set here, once, so the validator's per-response
     checks hit a warm decision structure (and so a config shared
     across worker domains shares a read-only compiled view instead of
     racing to build it). *)
  ignore (Jury_policy.Engine.compiled policies);
  let channel = Channel.lossy ?drop ?duplicate ?jitter_us () in
  (* Deterministic latencies also replace randomly sampled secondaries
     with the static peer set — the replicator then consumes no
     randomness at all, which the schedule explorer's dependence
     relation relies on. *)
  let random_secondaries =
    if deterministic_latencies then false
    else Option.value random_secondaries ~default:true
  in
  let timeout =
    match timeout with
    | Some t -> t
    | None -> if encapsulation then Time.ms 800 else Time.ms 150
  in
  (match degraded_quorum with
  | Some q when q < 1 ->
      invalid_arg "Jury_config.make: degraded_quorum must be >= 1"
  | _ -> ());
  (match max_inflight with
  | Some m when m < 1 ->
      invalid_arg "Jury_config.make: max_inflight must be >= 1"
  | _ -> ());
  (match batch with
  | Some w when not Time.(w > zero) ->
      invalid_arg "Jury_config.make: batch window must be positive"
  | _ -> ());
  (match election with
  | Some { Jury_controller.Cluster.period; timeout_beats } ->
      if not Time.(period > zero) then
        invalid_arg "Jury_config.make: election period must be positive";
      if timeout_beats < 1 then
        invalid_arg "Jury_config.make: election timeout_beats must be >= 1"
  | None -> ());
  if pipeline_jobs < 1 then
    invalid_arg "Jury_config.make: pipeline_jobs must be >= 1";
  (* The staged pipeline runs validation off the main domain; every
     feature that feeds verdict state back into the capture/channel
     stage (or reads live cluster state from a replica) is rejected
     up front rather than silently degraded. *)
  let batch =
    if pipeline_jobs > 1 then begin
      if retransmit <> None then
        invalid_arg "Jury_config.make: pipeline_jobs > 1 excludes retransmit";
      if adaptive_timeout then
        invalid_arg
          "Jury_config.make: pipeline_jobs > 1 excludes adaptive_timeout";
      if max_inflight <> None then
        invalid_arg "Jury_config.make: pipeline_jobs > 1 excludes max_inflight";
      if Jury_policy.Engine.rule_count policies > 0 then
        invalid_arg "Jury_config.make: pipeline_jobs > 1 excludes policy rules";
      if election <> None then
        invalid_arg "Jury_config.make: pipeline_jobs > 1 excludes election";
      let batch = match batch with None -> Time.us 200 | Some w -> w in
      if not Time.(batch < timeout) then
        invalid_arg
          "Jury_config.make: pipeline batch window must be below the \
           validation timeout";
      Some batch
    end
    else batch
  in
  { k;
    timeout;
    adaptive_timeout;
    state_aware;
    nondet_rule;
    random_secondaries;
    deterministic_latencies;
    policies;
    encapsulation;
    channel;
    retransmit;
    degraded_quorum;
    max_inflight;
    batch_window = batch;
    pipeline_jobs;
    election }
