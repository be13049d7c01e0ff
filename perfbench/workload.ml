(* The benchmark's workloads and the untraced drive both runs share.

   Every workload is the paper's 24-switch linear topology under a
   benign Flows.controlled_mix with no injected fault, so the simulator
   knows the ground truth: every verdict other than ok is spurious. *)

open Jury_sim
module Setup = Jury_experiments.Setup
module Profile = Jury_controller.Profile
module Cluster = Jury_controller.Cluster
module Switch = Jury_net.Switch
module Network = Jury_net.Network
module Host = Jury_net.Host
module Fabric = Jury_store.Fabric
module Validator = Jury.Validator
module Deployment = Jury.Deployment
module Alarm = Jury.Alarm

type t = {
  name : string;
  profile : Profile.t;
  jury : (unit -> Jury.Jury_config.t) option;  (** [None] = vanilla *)
  rate : float;  (** PACKET_IN/s offered by controlled_mix *)
  traffic : Time.t;  (** simulated traffic duration *)
  drain : Time.t;  (** simulated time after traffic stops *)
  realizations : int;  (** independent realizations per seed *)
}

let nodes = 7

(* A 1k-rule admin policy shaped like a real one — cache-, operation-
   and controller-specific deny rules plus a share of wildcard
   selectors — whose entry globs never match a real key, so every
   response is checked against its whole applicable leaf and allowed. *)
let policy_rules () =
  let caches =
    Jury_store.Cache_names.
      [| flowsdb; linksdb; edgedb; hostdb; arpdb; switchdb; masterdb |]
  in
  let ops = Jury_store.Event.[| Create; Update; Delete |] in
  List.init 1000 (fun i ->
      Jury_policy.Ast.rule
        ~name:(Printf.sprintf "deny-%d" i)
        ?cache:(if i mod 29 = 0 then None else Some caches.(i mod 7))
        ~controller:
          (if i mod 11 = 0 then Jury_policy.Ast.Any_controller
           else Jury_policy.Ast.Controller_id (i mod nodes))
        ~operation:
          (if i mod 13 = 0 then Jury_policy.Ast.Any_op
           else Jury_policy.Ast.Op_is ops.(i mod 3))
        ~entry:
          (Jury_policy.Ast.Entry_glob
             { key = Jury_policy.Pattern.compile (Printf.sprintf "never-%d-*" i);
               value = Jury_policy.Pattern.compile "*" })
        ())

(* The query a FLOWSDB write by a reactive forwarding app produces. *)
let policy_query =
  { Jury_policy.Ast.q_controller = 3;
    q_trigger = `External;
    q_cache = Jury_store.Cache_names.flowsdb;
    q_op = Jury_store.Event.Create;
    q_key = "00:00:00:00:00:03/10.0.0.3->10.0.0.9:40001";
    q_value = String.make 120 'f';
    q_destination = `Local }

let all =
  [ { name = "onos-k6-mix";
      profile = Profile.onos;
      jury = Some (fun () -> Jury.Jury_config.make ~k:6 ());
      rate = 2000.;
      traffic = Time.ms 1500;
      drain = Time.sec 2;
      realizations = 7 };
    { name = "onos-vanilla-mix";
      profile = Profile.onos;
      jury = None;
      rate = 2000.;
      traffic = Time.ms 1500;
      drain = Time.sec 2;
      (* A seventh of onos-k6-mix's cost per realization, and its
         promoted words swing most between realizations; the first
         seven realizations are onos-k6-mix's. *)
      realizations = 42 };
    { name = "odl-encap-lossy";
      profile = Profile.odl;
      jury =
        Some
          (fun () ->
            Jury.Jury_config.make ~k:6 ~encapsulation:true ~drop:0.02
              ~retransmit:(Jury.Jury_config.retransmit ())
              ~policies:(Jury_policy.Engine.create (policy_rules ()))
              ());
      rate = 500.;
      traffic = Time.sec 4;
      drain = Time.sec 2;
      realizations = 10 } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* One seed gives several independent realizations of a workload. A
   single realization swings widely with its seed: the mix tears down
   links of a linear chain, and how often, and what the data plane does
   while the chain is cut, changes host cost per trigger by tens of
   percent. The benchmark reports medians over the realizations. *)
let sub_seeds w seed = List.init w.realizations (fun j -> Hashtbl.hash (seed, j))

(* Set-up as a user pays it: the JURY configuration (policy compiled
   once) and Setup.make (build, LLDP convergence, host joins, settle). *)
let build w ~seed =
  let jury = Option.map (fun make -> make ()) w.jury in
  Setup.make ~seed ?jury ~profile:w.profile ~nodes ()

(* --- Public counters, read before and after the measured window --- *)

type counters = {
  events : int;
  packet_ins : int;
  flow_mods : int;
  drops : int;
  host_rx : int;
  store_applied : int;
  store_bytes : int;
  replicated : int;
  replication_bytes : int;
  chan_sent : int;
  chan_dropped : int;
  chan_retransmits : int;
  decided : int;
  faulty : int;
  unverifiable : int;
  overloads : int;
  duplicates : int;
  late : int;
  pending : int;
}

let sum_switches env f =
  List.fold_left (fun acc sw -> acc + f sw) 0 (Network.switches env.Setup.network)

let snapshot (env : Setup.env) =
  let fabric = Cluster.fabric env.cluster in
  let jury f = match env.deployment with Some d -> f d | None -> 0 in
  let v f = jury (fun d -> f (Deployment.validator d)) in
  let chan f = jury (fun d -> f (Deployment.channel_totals d)) in
  { events = Engine.executed_events env.engine;
    packet_ins = sum_switches env Switch.packet_in_count;
    flow_mods = sum_switches env Switch.flow_mod_count;
    drops = sum_switches env Switch.dropped_count;
    host_rx =
      List.fold_left
        (fun acc h -> acc + Host.received_count h)
        0 (Network.hosts env.network);
    store_applied = Fabric.events_applied fabric;
    store_bytes = Fabric.bytes_replicated fabric;
    replicated = jury Deployment.replicated_trigger_count;
    replication_bytes = jury Deployment.replication_bytes;
    chan_sent = chan (fun s -> s.Jury.Channel.sent);
    chan_dropped = chan (fun s -> s.Jury.Channel.dropped);
    chan_retransmits = chan (fun s -> s.Jury.Channel.retransmitted);
    decided = v Validator.decided_count;
    faulty = v Validator.fault_count;
    unverifiable = v Validator.unverifiable_count;
    overloads = v Validator.overload_count;
    duplicates = v Validator.duplicate_count;
    late = v Validator.late_count;
    pending = v Validator.pending_count }

let diff a b =
  { events = b.events - a.events;
    packet_ins = b.packet_ins - a.packet_ins;
    flow_mods = b.flow_mods - a.flow_mods;
    drops = b.drops - a.drops;
    host_rx = b.host_rx - a.host_rx;
    store_applied = b.store_applied - a.store_applied;
    store_bytes = b.store_bytes - a.store_bytes;
    replicated = b.replicated - a.replicated;
    replication_bytes = b.replication_bytes - a.replication_bytes;
    chan_sent = b.chan_sent - a.chan_sent;
    chan_dropped = b.chan_dropped - a.chan_dropped;
    chan_retransmits = b.chan_retransmits - a.chan_retransmits;
    decided = b.decided - a.decided;
    faulty = b.faulty - a.faulty;
    unverifiable = b.unverifiable - a.unverifiable;
    overloads = b.overloads - a.overloads;
    duplicates = b.duplicates - a.duplicates;
    late = b.late - a.late;
    pending = b.pending }

(* --- What a run produced: simulated outcome plus its host cost --- *)

type outcome = {
  jury_on : bool;
  delta : counters;  (** measured window; [pending] is the count after *)
  pending_before : int;
  verdicts : Alarm.t list;  (** decided in the window, oldest first *)
  fingerprint : string;
  wall_s : float;
  words : float;  (** minor words allocated in the window *)
  promoted : float;
  minor_gcs : int;
  major_gcs : int;
  peak_heap_words : int;  (** major heap high-water mark, sampled *)
  slice_ns : int array;
      (** host time of each [heap_sample] slice of simulated time, in
          order; empty for a traced run *)
  spin_ns : int array;
      (** {!Clock.spin_ns} taken just before each slice *)
}

let verdict_line (a : Alarm.t) =
  Printf.sprintf "%s|%s|%s|%s|%d|%d"
    (Jury_controller.Types.Taint.to_string a.taint)
    (Alarm.verdict_name a.verdict)
    (match a.primary with None -> "-" | Some p -> string_of_int p)
    (String.concat "," (List.map string_of_int a.suspects))
    (Time.to_ns a.trigger_at) (Time.to_ns a.decided_at)

(* One digest of everything the simulation decided: every verdict of
   the window, what is still pending, and per-switch / per-host data
   plane outcomes (the whole story on a vanilla cluster). Two commits
   that only change host-side cost print the same fingerprint. *)
let fingerprint (env : Setup.env) verdicts ~pending =
  let lines = List.sort compare (List.map verdict_line verdicts) in
  let switches =
    List.map
      (fun sw ->
        Printf.sprintf "sw|%s|%d|%d|%d"
          (Jury_openflow.Of_types.Dpid.to_string (Switch.dpid sw))
          (Switch.packet_in_count sw) (Switch.flow_mod_count sw)
          (Switch.dropped_count sw))
      (Network.switches env.network)
  in
  let hosts =
    List.map
      (fun h -> Printf.sprintf "host|%d|%d" (Host.index h) (Host.received_count h))
      (Network.hosts env.network)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          ((Printf.sprintf "pending|%d" pending :: lines) @ switches @ hosts)))

(* Schedule the traffic; returns the horizon the drain ends at. *)
let start w (env : Setup.env) =
  let t0 = Engine.now env.engine in
  Jury_workload.Flows.controlled_mix env.network ~rng:env.rng
    ~packet_in_rate:w.rate ~duration:w.traffic;
  Time.add t0 (Time.add w.traffic w.drain)

let outcome ?(slice_ns = [||]) ?(spin_ns = [||]) (env : Setup.env) ~before
    ~after ~wall_s ~words ~promoted ~minor_gcs ~major_gcs ~peak_heap_words =
  let verdicts =
    match env.deployment with
    | None -> []
    | Some d ->
        List.filteri
          (fun i _ -> i >= before.decided)
          (Validator.verdicts (Deployment.validator d))
  in
  { jury_on = env.deployment <> None;
    delta = diff before after;
    pending_before = before.pending;
    verdicts;
    fingerprint = fingerprint env verdicts ~pending:after.pending;
    wall_s;
    words;
    promoted;
    minor_gcs;
    major_gcs;
    peak_heap_words;
    slice_ns;
    spin_ns }

(* Simulated time between two samples of the major heap size. *)
let heap_sample = Time.ms 20

(* The untraced run: Engine.run to the horizon, cut into [heap_sample]
   slices. Slicing Engine.run ~until executes exactly the same events in
   the same order as one call. Between slices the run times the
   reference loop, samples the major heap size and calls [poll]; the
   host time and words of each slice are read around Engine.run alone,
   so that work is not counted. *)
let run_untraced ?(poll = ignore) w (env : Setup.env) =
  let before = snapshot env in
  let horizon = start w env in
  let slices = ref [] and spins = ref [] and words = ref 0. and peak = ref 0 in
  let gc0 = Gc.quick_stat () in
  let rec go h =
    spins := Clock.spin_ns () :: !spins;
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    Engine.run env.engine ~until:h;
    let t1 = Clock.now_ns () in
    words := !words +. (Gc.minor_words () -. w0);
    slices := (t1 - t0) :: !slices;
    peak := max !peak (Gc.quick_stat ()).heap_words;
    poll ();
    if Time.(h < horizon) then go (Time.min horizon (Time.add h heap_sample))
  in
  go (Time.min horizon (Time.add (Engine.now env.engine) heap_sample));
  let gc1 = Gc.quick_stat () in
  let slice_ns = Array.of_list (List.rev !slices) in
  let spin_ns = Array.of_list (List.rev !spins) in
  outcome env ~slice_ns ~spin_ns ~before ~after:(snapshot env)
    ~wall_s:(float_of_int (Array.fold_left ( + ) 0 slice_ns) /. 1e9)
    ~words:!words
    ~promoted:(gc1.promoted_words -. gc0.promoted_words)
    ~minor_gcs:(gc1.minor_collections - gc0.minor_collections)
    ~major_gcs:(gc1.major_collections - gc0.major_collections)
    ~peak_heap_words:!peak

(* Several realizations as one: counters and costs add up, verdicts
   pool, and the fingerprint digests the parts' fingerprints in order. *)
let merge = function
  | [] -> invalid_arg "Workload.merge: no outcome"
  | first :: _ as os ->
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 os in
      let sumf f = List.fold_left (fun acc o -> acc +. f o) 0. os in
      let d f = sum (fun o -> f o.delta) in
      { jury_on = first.jury_on;
        delta =
          { events = d (fun c -> c.events);
            packet_ins = d (fun c -> c.packet_ins);
            flow_mods = d (fun c -> c.flow_mods);
            drops = d (fun c -> c.drops);
            host_rx = d (fun c -> c.host_rx);
            store_applied = d (fun c -> c.store_applied);
            store_bytes = d (fun c -> c.store_bytes);
            replicated = d (fun c -> c.replicated);
            replication_bytes = d (fun c -> c.replication_bytes);
            chan_sent = d (fun c -> c.chan_sent);
            chan_dropped = d (fun c -> c.chan_dropped);
            chan_retransmits = d (fun c -> c.chan_retransmits);
            decided = d (fun c -> c.decided);
            faulty = d (fun c -> c.faulty);
            unverifiable = d (fun c -> c.unverifiable);
            overloads = d (fun c -> c.overloads);
            duplicates = d (fun c -> c.duplicates);
            late = d (fun c -> c.late);
            pending = d (fun c -> c.pending) };
        pending_before = sum (fun o -> o.pending_before);
        verdicts = List.concat_map (fun o -> o.verdicts) os;
        fingerprint =
          Digest.to_hex
            (Digest.string (String.concat "," (List.map (fun o -> o.fingerprint) os)));
        wall_s = sumf (fun o -> o.wall_s);
        words = sumf (fun o -> o.words);
        promoted = sumf (fun o -> o.promoted);
        minor_gcs = sum (fun o -> o.minor_gcs);
        major_gcs = sum (fun o -> o.major_gcs);
        peak_heap_words = List.fold_left (fun acc o -> max acc o.peak_heap_words) 0 os;
        slice_ns = Array.concat (List.map (fun o -> o.slice_ns) os);
        spin_ns = Array.concat (List.map (fun o -> o.spin_ns) os) }

(* --- Derived figures --- *)

let triggers o = o.delta.packet_ins

(* Triggers the validator judged in the window: decided plus those
   still undecided after the drain. Vanilla judges frames instead. *)
let attempted o =
  if o.jury_on then o.delta.decided + o.delta.pending
  else o.delta.host_rx + o.delta.drops

(* Spurious verdicts (the mix is benign) plus triggers never decided;
   on vanilla, frames a switch dropped. *)
let failed o =
  if o.jury_on then o.delta.faulty + o.delta.unverifiable + o.delta.pending
  else o.delta.drops

let ok_verdicts o =
  o.delta.decided - o.delta.faulty - o.delta.unverifiable - o.delta.overloads

let detect_ms o =
  Array.of_list
    (List.map (fun a -> Time.to_float_ms (Alarm.detection_time a)) o.verdicts)

(* Simulation-side checks every run makes; returns the failures. *)
let check o =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if o.delta.packet_ins <= 0 then fail "no PACKET_IN in the window";
  if o.delta.host_rx <= 0 then fail "no frame delivered to a host";
  if o.jury_on then begin
    (* Conservation: every external trigger intercepted in the window
       was registered, so it is decided or still pending. *)
    if o.delta.decided + o.delta.pending - o.pending_before < o.delta.replicated
    then
      fail "conservation: %d intercepted > %d decided + %d pending - %d before"
        o.delta.replicated o.delta.decided o.delta.pending o.pending_before;
    if List.length o.verdicts <> o.delta.decided then
      fail "verdict list holds %d, counter says %d" (List.length o.verdicts)
        o.delta.decided;
    let seen = Hashtbl.create 1024 in
    List.iter
      (fun (a : Alarm.t) ->
        let key = Jury_controller.Types.Taint.to_string a.taint in
        if Hashtbl.mem seen key then fail "trigger %s decided twice" key;
        Hashtbl.replace seen key ();
        match a.verdict with
        | Alarm.Faulty faults ->
            List.iter
              (function
                | Alarm.Policy_violation rule ->
                    fail "policy rule %s matched; none should" rule
                | _ -> ())
              faults
        | _ -> ())
      o.verdicts
  end;
  List.rev !errors
