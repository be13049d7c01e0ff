(* The benchmark's own tests, on short runs of every workload. *)

open Perfbench

let seed = 7

(* Short traffic keeps each run well under a second. *)
let short (w : Workload.t) = { w with traffic = Jury_sim.Time.ms 300 }

let untraced w =
  Workload.run_untraced w (Workload.build w ~seed)

let traced w =
  let led = Ledger.create () in
  let o = Ledger.run led w (Workload.build w ~seed) in
  (led, o)

let deterministic (w : Workload.t) () =
  let w = short w in
  let a = untraced w and b = untraced w in
  Alcotest.(check string) "fingerprint" a.fingerprint b.fingerprint;
  Alcotest.(check int) "sim.events" a.delta.events b.delta.events;
  Alcotest.(check int) "verdicts" a.delta.decided b.delta.decided;
  Alcotest.(check (float 0.)) "words" a.words b.words;
  Alcotest.(check bool) "simulation checks" true (Workload.check a = []);
  let la, ta = traced w and lb, tb = traced w in
  Alcotest.(check (array int)) "layer steps" la.steps lb.steps;
  Alcotest.(check (array (float 0.))) "layer words" la.words lb.words;
  Alcotest.(check string) "traced fingerprint" ta.fingerprint tb.fingerprint

let ledger_sums (w : Workload.t) () =
  let w = short w in
  let reference = untraced w in
  let led, o = traced w in
  (* Tracing and outside stepping change no verdict and no event, and
     the step loop stops where Engine.run ~until stops. *)
  Alcotest.(check string) "fingerprint" reference.fingerprint o.fingerprint;
  Alcotest.(check int) "sim.events" reference.delta.events o.delta.events;
  Alcotest.(check int) "verdicts" reference.delta.decided o.delta.decided;
  Alcotest.(check int) "every event charged to one layer" o.delta.events
    (Array.fold_left ( + ) 0 led.steps);
  Alcotest.(check (float 0.)) "layer words sum to the run's words" o.words
    (Array.fold_left ( +. ) 0. led.words);
  Alcotest.(check int) "self time plus remainder is the wall time" led.wall_ns
    (Ledger.attributed_ns led + Ledger.unattributed_ns led);
  Alcotest.(check bool) "remainder is not negative" true
    (Ledger.unattributed_ns led >= 0);
  Alcotest.(check int) "no trace event lost" 0 led.lost_events

(* The row must time Compiled.check, the trie the validator calls, and
   not the Engine.check reference interpreter. Allocation per call is
   deterministic and tells the two apart exactly; time backs it up:
   the interpreter scans every rule that applies to the queried cache,
   the trie one short leaf. *)
let policy_row_is_compiled () =
  let row = Micro.policy_check () in
  let rules = Workload.policy_rules () in
  let engine = Jury_policy.Engine.create rules in
  let compiled = Jury_policy.Compiled.of_rules rules in
  let interp () = Jury_policy.Engine.check engine Workload.policy_query in
  let direct () = Jury_policy.Compiled.check compiled Workload.policy_query in
  Alcotest.(check bool) "no rule matches" true (row () = Jury_policy.Compiled.Allowed);
  Alcotest.(check bool) "oracle agrees" true (interp () = row ());
  let row_ns, row_words = Micro.time_op ~iters:20_000 row in
  let _, direct_words = Micro.time_op ~iters:20_000 direct in
  let interp_ns, interp_words = Micro.time_op ~iters:2_000 interp in
  Alcotest.(check (float 0.)) "words/op of Compiled.check" direct_words row_words;
  Alcotest.(check bool) "words/op unlike Engine.check" true
    (row_words <> interp_words);
  if row_ns *. 3. > interp_ns then
    Alcotest.failf "row %.0f ns/op is not far below the interpreter's %.0f"
      row_ns interp_ns

let per_workload name f =
  List.map
    (fun (w : Workload.t) -> Alcotest.test_case w.name `Quick (f w))
    Workload.all
  |> fun cases -> (name, cases)

let () =
  Alcotest.run "perfbench"
    [ per_workload "deterministic" deterministic;
      per_workload "ledger" ledger_sums;
      ("policy", [ Alcotest.test_case "compiled trie" `Quick policy_row_is_compiled ]) ]
