open Jury_sim
module Cluster = Jury_controller.Cluster
module Network = Jury_net.Network
module Host = Jury_net.Host
module Builder = Jury_topo.Builder

type report = {
  scenario : Scenarios.t;
  detected : bool;
  detection_time_ms : float option;
  matching_alarms : Jury.Alarm.t list;
  other_alarms : Jury.Alarm.t list;
  verdict_count : int;
}

type env = {
  cluster : Cluster.t;
  network : Network.t;
  deployment : Jury.Deployment.t;
  faulty : int;
}

let default_nodes = 7
let default_faulty = 2

let run_env ?(seed = 11) ?(nodes = default_nodes) ?(k = 6)
    ?(faulty = default_faulty)
    ?(extra_slow = []) ?(switches = 24) ?(random_secondaries = true) ?trace
    ?max_inflight ?batch ?pipeline_jobs (scenario : Scenarios.t) =
  let engine = Engine.create ~seed () in
  Option.iter (Engine.set_trace engine) trace;
  let plan = Builder.linear ~switches ~hosts_per_switch:1 in
  let network =
    Network.create engine plan
      ~lenient_tables:scenario.Scenarios.needs_lenient_switches ()
  in
  let cluster =
    Cluster.create engine ~profile:scenario.Scenarios.profile ~nodes ~network
      ()
  in
  let deployment =
    Jury.Deployment.install cluster
      (Scenarios.jury_config scenario ~k ~random_secondaries ?max_inflight
         ?batch ?pipeline_jobs ())
  in
  let ctx =
    { Scenarios.cluster;
      network;
      deployment;
      faulty;
      rng = Rng.split (Engine.rng engine) }
  in
  List.iter
    (fun node -> Injector.make_slow cluster ~node ~delay:(Time.ms 40))
    extra_slow;
  if scenario.Scenarios.arm_before_start then scenario.Scenarios.arm ctx;
  Cluster.converge cluster;
  List.iter Host.join (Network.hosts network);
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  if not scenario.Scenarios.arm_before_start then scenario.Scenarios.arm ctx;
  let t0 = Engine.now engine in
  scenario.Scenarios.provoke ctx;
  Engine.run engine
    ~until:(Time.add (Engine.now engine) scenario.Scenarios.settle);
  let validator = Jury.Deployment.validator deployment in
  (* No-op on the serial path; a pipelined run merges its replica
     here (undecided triggers stay undecided). *)
  Jury.Validator.drain_pipeline validator;
  let alarms = Jury.Validator.alarms validator in
  let matches (a : Jury.Alarm.t) =
    Time.(a.Jury.Alarm.decided_at >= t0)
    && List.mem faulty a.Jury.Alarm.suspects
    && (match a.Jury.Alarm.verdict with
       | Jury.Alarm.Faulty faults ->
           List.exists scenario.Scenarios.expected faults
       | _ -> false)
  in
  let matching_alarms, other_alarms = List.partition matches alarms in
  let report =
    { scenario;
      detected = matching_alarms <> [];
      detection_time_ms =
        (match matching_alarms with
        | a :: _ -> Some (Time.to_float_ms (Jury.Alarm.detection_time a))
        | [] -> None);
      matching_alarms;
      other_alarms;
      verdict_count = Jury.Validator.decided_count validator }
  in
  (report, { cluster; network; deployment; faulty })

let run ?seed ?nodes ?k ?faulty ?extra_slow ?switches ?random_secondaries
    ?trace ?max_inflight ?batch ?pipeline_jobs scenario =
  fst
    (run_env ?seed ?nodes ?k ?faulty ?extra_slow ?switches
       ?random_secondaries ?trace ?max_inflight ?batch ?pipeline_jobs
       scenario)

let run_matrix ?pool ?(seed = 11) ?(repeats = 1) ?(seed_stride = 13)
    ?(nodes = default_nodes) ?k ?(faulty = default_faulty) ?extra_slow
    ?switches ?random_secondaries scenarios =
  (* The catalog's faults need a faulty replica other than node 0, which
     is never the higher-id master of a link. Checked before fanning out:
     a shape no scenario can run is one error, not one per cell. *)
  if faulty < 1 || faulty >= nodes then
    invalid_arg
      (Printf.sprintf
         "Runner.run_matrix: need 1 <= faulty < nodes (faulty = %d, \
          nodes = %d)"
         faulty nodes);
  let pool =
    match pool with Some p -> p | None -> Jury_par.Pool.default ()
  in
  (* One pool task per (scenario, repeat) cell — every cell builds its
     own engine inside the task, so the matrix is embarrassingly
     parallel and its result is independent of the worker count. *)
  let cells =
    List.concat_map
      (fun scenario -> List.init repeats (fun i -> (scenario, i)))
      scenarios
  in
  let reports =
    Jury_par.Pool.map_ordered pool cells (fun (scenario, i) ->
        run ~seed:(seed + (i * seed_stride)) ~nodes ?k ~faulty ?extra_slow
          ?switches ?random_secondaries scenario)
  in
  let rec regroup scenarios reports =
    match scenarios with
    | [] -> []
    | scenario :: rest ->
        let rec split n rs =
          if n = 0 then ([], rs)
          else
            match rs with
            | [] -> invalid_arg "Runner.run_matrix: report underflow"
            | r :: rs ->
                let taken, rest = split (n - 1) rs in
                (r :: taken, rest)
        in
        let mine, others = split repeats reports in
        (scenario, mine) :: regroup rest others
  in
  regroup scenarios reports

let pp_report fmt r =
  Format.fprintf fmt "%-28s %-2s %-10s %s" r.scenario.Scenarios.name
    (match r.scenario.Scenarios.klass with
    | `T1 -> "T1"
    | `T2 -> "T2"
    | `T3 -> "T3")
    (if r.detected then "DETECTED" else "MISSED")
    (match r.detection_time_ms with
    | Some ms -> Printf.sprintf "in %.1fms (%s)" ms r.scenario.Scenarios.expected_name
    | None -> "(" ^ r.scenario.Scenarios.expected_name ^ " not raised)")
