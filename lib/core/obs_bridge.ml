module Trace = Jury_obs.Trace
module Span = Jury_obs.Span
module Metrics = Jury_sim.Metrics

let record_phase_series ?(prefix = "span/") trace metrics =
  let roots = Span.assemble (Trace.events trace) in
  List.iter
    (fun root ->
      match Span.duration_ns root with
      | None -> () (* still open: trigger never reached a verdict *)
      | Some total_ns ->
          Metrics.record metrics (prefix ^ "total")
            (float_of_int total_ns /. 1e6);
          List.iter
            (fun (phase, ms) ->
              Metrics.record metrics (prefix ^ Trace.phase_name phase) ms)
            (Span.phase_breakdown_ms root))
    roots

let record_validator ?(prefix = "validator/") v metrics =
  let bump field n = Metrics.incr metrics ~by:n (prefix ^ field) in
  bump "pending" (Validator.pending_count v);
  bump "decided" (Validator.decided_count v);
  bump "faults" (Validator.fault_count v);
  bump "batches" (Validator.batch_count v);
  bump "batch-responses" (Validator.batched_response_count v);
  bump "overloads" (Validator.overload_count v);
  bump "retransmits" (Validator.retransmit_count v);
  bump "epoch" (Validator.current_epoch v)

let record_channel_counters ?(prefix = "channel/") stats metrics =
  List.iter
    (fun (name, (s : Channel.stats)) ->
      let bump field v = Metrics.incr metrics ~by:v (prefix ^ name ^ field) in
      bump "/sent" s.Channel.sent;
      bump "/delivered" s.Channel.delivered;
      bump "/dropped" s.Channel.dropped;
      bump "/duplicated" s.Channel.duplicated;
      bump "/retransmitted" s.Channel.retransmitted)
    stats
