(* Tests for the Jury_config builder and the bounded/batched/pipelined
   validator state behind it: make must reject every out-of-range
   knob, the staged pipeline must not change verdicts, max_inflight
   must shed load as Overload verdicts, and the process-wide counters
   must support per-run deltas. *)

open Jury_sim
module Types = Jury_controller.Types
module Validator = Jury.Validator
module Response = Jury.Response
module Snapshot = Jury.Snapshot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Build, converge and drive a small benign cluster with [deployment_of]
   supplying the JURY deployment; returns verdict statistics plus the
   exact detection-time samples, which double as a byte-for-byte
   fingerprint of the run. *)
let drive deployment_of =
  let engine = Engine.create ~seed:42 () in
  let plan = Jury_topo.Builder.linear ~switches:8 ~hosts_per_switch:1 in
  let network = Jury_net.Network.create engine plan () in
  let cluster =
    Jury_controller.Cluster.create engine
      ~profile:Jury_controller.Profile.onos ~nodes:5 ~network ()
  in
  let deployment = deployment_of cluster in
  Jury_controller.Cluster.converge cluster;
  List.iter Jury_net.Host.join (Jury_net.Network.hosts network);
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  let rng = Rng.split (Engine.rng engine) in
  Jury_workload.Flows.controlled_mix network ~rng ~packet_in_rate:800.
    ~duration:(Time.sec 2);
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 4));
  let v = Jury.Deployment.validator deployment in
  Validator.drain_pipeline v;
  ( Validator.decided_count v,
    Validator.fault_count v,
    Array.to_list (Validator.detection_times_ms v),
    v )

(* A batched deployment at --pipeline-jobs 2 validates on the stage's
   replica and must match the serial run verdict for verdict and
   counter for counter. Response observers fire only on the inline
   path, so a silent observer on the pipelined run proves the stage
   attached (an eligibility-gate fallback would compare serial with
   serial). *)
let test_pipeline_matches_serial () =
  let run jobs =
    let observed = ref 0 in
    let _, _, _, v =
      drive (fun cluster ->
          let d =
            Jury.Deployment.install cluster
              (Jury.Jury_config.make ~batch:(Time.us 200) ~pipeline_jobs:jobs
                 ())
          in
          Validator.on_response (Jury.Deployment.validator d) (fun _ ->
              incr observed);
          d)
    in
    (v, !observed)
  in
  let serial, serial_observed = run 1 and piped, piped_observed = run 2 in
  check_bool "serial run validated inline" true (serial_observed > 0);
  check_int "pipelined run validated on the stage" 0 piped_observed;
  (match
     Jury_check.Run.diff_fingerprint
       (Jury_check.Run.fingerprint_of_validator serial)
       (Jury_check.Run.fingerprint_of_validator piped)
   with
  | None -> ()
  | Some d -> Alcotest.failf "jobs=1 vs jobs=2: %s" d);
  let counters v =
    [ Validator.decided_count v; Validator.fault_count v;
      Validator.pending_count v; Validator.unverifiable_count v;
      Validator.duplicate_count v; Validator.late_count v;
      Validator.straggler_count v; Validator.batch_count v;
      Validator.batched_response_count v; Validator.current_epoch v ]
  in
  Alcotest.(check (list int)) "counters identical" (counters serial)
    (counters piped);
  check_bool "batches delivered" true (Validator.batch_count piped > 0)

(* --- bare-validator paths: overload shedding, batch equivalence --- *)

let register v ~serial =
  Validator.register_external v
    ~taint:(Types.Taint.external_trigger ~primary:0 ~serial)
    ~at:Time.zero ~primary:0 ~secondaries:[ 1; 2 ]

let bare_validator ?max_inflight () =
  let engine = Engine.create () in
  ( engine,
    Validator.create engine
      (Jury.Jury_config.make ~k:2 ~timeout:(Time.ms 100) ?max_inflight ()) )

let test_max_inflight_sheds_as_overload () =
  let _, v = bare_validator ~max_inflight:8 () in
  for serial = 0 to 39 do
    register v ~serial
  done;
  check_bool "inflight bounded near the high-water mark" true
    (Validator.pending_count v <= 16);
  check_bool "overloads recorded" true (Validator.overload_count v > 0);
  let overload_verdicts =
    Validator.verdicts v
    |> List.filter (fun (a : Jury.Alarm.t) ->
           a.Jury.Alarm.verdict = Jury.Alarm.Overload)
  in
  check_int "counter matches Overload verdicts"
    (Validator.overload_count v)
    (List.length overload_verdicts);
  check_int "everything is either pending, decided ok, or shed" 40
    (Validator.pending_count v + Validator.decided_count v)

let responses n =
  List.concat_map
    (fun serial ->
      let taint = Types.Taint.external_trigger ~primary:0 ~serial in
      List.map
        (fun controller ->
          { Response.controller;
            taint;
            snapshot = Snapshot.pristine;
            sent_at = Time.zero;
            term = 0;
            body =
              Response.Execution
                { role = (if controller = 0 then `Primary else `Secondary);
                  actions = [] } })
        [ 0; 1; 2 ])
    (List.init n (fun i -> i))

let test_deliver_batch_matches_per_event () =
  let run ~batched =
    let _, v = bare_validator () in
    for serial = 0 to 9 do
      register v ~serial
    done;
    let rs = responses 10 in
    if batched then Validator.deliver_batch v rs
    else List.iter (Validator.deliver v) rs;
    v
  in
  let a = run ~batched:false in
  let b = run ~batched:true in
  check_int "per-event decided" 10 (Validator.decided_count a);
  check_int "batched decided" (Validator.decided_count a)
    (Validator.decided_count b);
  check_int "no batches on the per-event path" 0 (Validator.batch_count a);
  check_int "one batch per call" 1 (Validator.batch_count b);
  check_int "all responses counted as batched" 30
    (Validator.batched_response_count b)

let test_process_counters_support_per_run_deltas () =
  (* The bench's --json report computes per-experiment deltas of the
     process-wide counters; two back-to-back runs must each account for
     exactly their own work. *)
  let run_once () =
    let _, v = bare_validator () in
    for serial = 0 to 4 do
      register v ~serial
    done;
    Validator.deliver_batch v (responses 5);
    (Validator.decided_count v, Validator.batch_count v)
  in
  let d0 = Validator.total_decided () and b0 = Validator.total_batches () in
  let decided1, batches1 = run_once () in
  let d1 = Validator.total_decided () and b1 = Validator.total_batches () in
  check_int "first run's decided delta" decided1 (d1 - d0);
  check_int "first run's batch delta" batches1 (b1 - b0);
  let decided2, batches2 = run_once () in
  let d2 = Validator.total_decided () and b2 = Validator.total_batches () in
  check_int "second run's decided delta" decided2 (d2 - d1);
  check_int "second run's batch delta" batches2 (b2 - b1)

let test_obs_bridge_exports_validator_counters () =
  let _, v = bare_validator () in
  for serial = 0 to 3 do
    register v ~serial
  done;
  Validator.deliver_batch v (responses 4);
  let metrics = Jury_sim.Metrics.create () in
  Jury.Obs_bridge.record_validator v metrics;
  check_int "decided counter exported" (Validator.decided_count v)
    (Jury_sim.Metrics.count metrics "validator/decided");
  check_int "batch counter exported" (Validator.batch_count v)
    (Jury_sim.Metrics.count metrics "validator/batches");
  check_int "batched-response counter exported"
    (Validator.batched_response_count v)
    (Jury_sim.Metrics.count metrics "validator/batch-responses");
  check_int "epoch gauge exported" (Validator.current_epoch v)
    (Jury_sim.Metrics.count metrics "validator/epoch")

let test_make_validates () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "negative k rejected" true
    (raises (fun () -> Jury.Jury_config.make ~k:(-1) ()));
  check_bool "out-of-range drop rejected" true
    (raises (fun () -> Jury.Jury_config.make ~drop:1.5 ()));
  check_bool "zero max_inflight rejected" true
    (raises (fun () -> Jury.Jury_config.make ~max_inflight:0 ()));
  check_bool "zero degraded_quorum rejected" true
    (raises (fun () -> Jury.Jury_config.make ~degraded_quorum:0 ()));
  let election period timeout_beats =
    Jury.Jury_config.make
      ~election:{ Jury_controller.Cluster.period; timeout_beats } ()
  in
  check_bool "zero election period rejected" true
    (raises (fun () -> election Time.zero 2));
  check_bool "zero election timeout_beats rejected" true
    (raises (fun () -> election (Time.ms 100) 0));
  check_bool "valid election accepted" false
    (raises (fun () -> election (Time.ms 100) 1))

let suite =
  [ Alcotest.test_case "pipeline jobs=2 matches serial" `Slow
      test_pipeline_matches_serial;
    Alcotest.test_case "max_inflight sheds as Overload" `Quick
      test_max_inflight_sheds_as_overload;
    Alcotest.test_case "deliver_batch = per-event deliver" `Quick
      test_deliver_batch_matches_per_event;
    Alcotest.test_case "process counters give per-run deltas" `Quick
      test_process_counters_support_per_run_deltas;
    Alcotest.test_case "obs bridge exports validator counters" `Quick
      test_obs_bridge_exports_validator_counters;
    Alcotest.test_case "make validates its arguments" `Quick
      test_make_validates ]
