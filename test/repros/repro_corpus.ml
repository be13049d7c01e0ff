(* The pinned repro corpus.

   Each entry is a shrunk case once produced by the fuzz harness
   against a buggy validator; re-running the full oracle battery over
   it must stay green. To append one, paste the "corpus entry" block a
   `jury_cli check` failure report prints (it is already in this
   format) and name the bug it caught.

   The seed entries below come from the harness's mutation-sensitivity
   demo: three deliberate validator bugs — a batch path dropping each
   bucket's first response, a validation timeout skewed by the
   trigger's shard index (the validator has since lost its shards; the
   case now guards the same timer path across pipeline job counts),
   and Ok_valid verdicts counted but never recorded — were each caught
   and minimised by the named oracle. *)

type entry = { name : string; oracle : string; case : Jury_check.Case.t }

let entries : entry list ref = ref []

let add ~name ~oracle case = entries := { name; oracle; case } :: !entries

let all () = List.rev !entries

(* batch-path off-by-one: deliver_batch dropped the first response of
   every shard bucket; per-event vs one-batch verdicts diverged. *)
let () =
  add ~name:"seed-42" ~oracle:"batch-equivalence"
    { Jury_check.Case.case_seed = 42;
      topo = Jury_check.Case.Linear;
      switches = 2;
      hosts_per_switch = 1;
      nodes = 3;
      k = 1;
      odl = false;
      workload = Jury_check.Case.Mix;
      rate = 88.944561029176867;
      duration_ms = 100;
      faults = [];
      drop = 0.0;
      duplicate = 0.0;
      jitter_us = 0.0;
      retries = 0;
      degraded_quorum = None;
      max_inflight = None;
      batch_us = None;
      triggers = 5 }

(* shard-skewed timer: the validation timeout gained the trigger's
   shard index in nanoseconds, so shards=1 and shards=4 decided
   timed-out triggers at different instants. The same skew on the
   pipeline replica would split jobs=1 from jobs=4 the same way. *)
let () =
  add ~name:"seed-44" ~oracle:"pipeline-jobs-independence"
    { Jury_check.Case.case_seed = 44;
      topo = Jury_check.Case.Linear;
      switches = 1;
      hosts_per_switch = 2;
      nodes = 3;
      k = 1;
      odl = false;
      workload = Jury_check.Case.Blast;
      rate = 86.0;
      duration_ms = 100;
      faults = [];
      drop = 0.0;
      duplicate = 0.0;
      jitter_us = 0.0;
      retries = 0;
      degraded_quorum = None;
      max_inflight = None;
      batch_us = None;
      triggers = 5 }

(* dropped verdicts: Ok_valid decisions bumped the decided counter but
   never entered the verdict list, breaking count conservation. *)
let () =
  add ~name:"seed-43" ~oracle:"verdict-conservation"
    { Jury_check.Case.case_seed = 43;
      topo = Jury_check.Case.Linear;
      switches = 1;
      hosts_per_switch = 2;
      nodes = 3;
      k = 1;
      odl = false;
      workload = Jury_check.Case.Mix;
      rate = 54.0;
      duration_ms = 110;
      faults = [];
      drop = 0.0;
      duplicate = 0.0;
      jitter_us = 0.0;
      retries = 0;
      degraded_quorum = None;
      max_inflight = None;
      batch_us = None;
      triggers = 5 }

(* The guided-fuzzing mutation demo: two stateful validator bugs that
   only the mutation-reachable fault vocabulary can trigger, so 200
   blind cases (seeds 42..241) pass while `check --fuzz` catches and
   shrinks both. Pinned from the minimised failures. *)

(* stale rejoin snapshot: every second crash-rejoin state transfer
   left the node's consensus snapshot pristine instead of adopting the
   resync source's, so replaying a case with a Rejoin fault diverged
   (ok verdicts flipped to ok-unverifiable on the second run only).
   Lineage: seed=24 fault-inject@280440992 workload-flip@91026226. *)
let () =
  add ~name:"fuzz-rejoin-stale-snapshot" ~oracle:"replay-determinism"
    { Jury_check.Case.case_seed = 24;
      topo = Jury_check.Case.Linear;
      switches = 1;
      hosts_per_switch = 1;
      nodes = 3;
      k = 1;
      odl = false;
      workload = Jury_check.Case.Joins;
      rate = 190.23927925819103;
      duration_ms = 100;
      faults =
        [ { Jury_check.Case.at_ms = 78;
            action = Jury_check.Case.Rejoin { node = 1 } } ];
      drop = 0.0;
      duplicate = 0.0;
      jitter_us = 0.0;
      retries = 0;
      degraded_quorum = None;
      max_inflight = None;
      batch_us = None;
      triggers = 5 }

(* policy verdicts without detection samples: detection_times_ms
   silently skipped Policy_violation verdicts, so a mid-run add_rule
   (policy churn) broke decided-count vs detection-sample conservation.
   Lineage: seed=19 fault-inject@759014654 fault-drop@773348863. *)
let () =
  add ~name:"fuzz-policy-detection-skip" ~oracle:"verdict-conservation"
    { Jury_check.Case.case_seed = 19;
      topo = Jury_check.Case.Linear;
      switches = 2;
      hosts_per_switch = 1;
      nodes = 3;
      k = 1;
      odl = false;
      workload = Jury_check.Case.Connections;
      rate = 84.636758189464658;
      duration_ms = 145;
      faults =
        [ { Jury_check.Case.at_ms = 170;
            action =
              Jury_check.Case.Add_rule
                { rule =
                    "deny name=fuzz-external-flowsdb trigger=external \
                     cache=FLOWSDB" } } ];
      drop = 0.0;
      duplicate = 0.0;
      jitter_us = 0.0;
      retries = 0;
      degraded_quorum = None;
      max_inflight = None;
      batch_us = None;
      triggers = 5 }
