(* The repository benchmark.

   jurybench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off: it sets
   up, drives and drains each realization of the seed, pass after pass
   for S seconds, and reports medians over realizations. --trace 1
   measures the per-layer metrics: each pass makes an untraced reference
   run and a traced run of every realization (see Ledger), and the run
   also times a few layer functions directly (see Micro). Both check the
   verdicts. The last line of output is one JSON object. *)

open Perfbench
module Summary = Jury_stats.Summary

let median = Micro.median

let percentile a q = if Array.length a = 0 then 0. else Summary.percentile a q

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }
let count name n = m name (float_of_int n) "count"
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Median per metric name across repeats, in first-repeat order. *)
let median_metrics repeats =
  match repeats with
  | [] -> []
  | first :: _ ->
      List.map
        (fun mt ->
          let vs =
            List.map
              (fun r -> (List.find (fun x -> x.name = mt.name) r).value)
              repeats
          in
          { mt with value = median vs })
        first

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun mt -> Printf.printf "  %-40s %18.6f %s\n" mt.name mt.value mt.unit)
    metrics;
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
          (json_number mt.value) mt.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let errors = ref []
let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

let print_fingerprint (w : Workload.t) ~seed (o : Workload.outcome) =
  Printf.printf "fingerprint %s seed=%d %s events=%d verdicts=%d pending=%d\n"
    w.name seed o.fingerprint o.delta.events o.delta.decided o.delta.pending

(* Set-up from a clean major heap, so that no run inherits the last
   one's garbage; timed on its own, in reference seconds. *)
let set_up (w : Workload.t) ~seed =
  Gc.full_major ();
  let spin = Clock.spin_ns () in
  let t0 = Clock.now_ns () in
  let env = Workload.build w ~seed in
  (Clock.reference_seconds ~spin (Clock.now_ns () - t0), env)

(* Repeat [f] while another repeat, as long as the last one, still
   ends within [seconds]; always at least once. *)
let repeat ~seconds f =
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let t0 = Clock.now_ns () in
    let acc = f () :: acc in
    let t1 = Clock.now_ns () in
    if t1 + (t1 - t0) <= deadline then go acc else List.rev acc
  in
  go []

(* What a later run of the same realization must reproduce. *)
type identity = { fingerprint : string; events : int; decided : int }

let identity (o : Workload.outcome) =
  { fingerprint = o.fingerprint; events = o.delta.events; decided = o.delta.decided }

let check_same_run ~what expected (o : Workload.outcome) =
  let got = identity o in
  if got.fingerprint <> expected.fingerprint then
    fail "%s: fingerprint %s differs from %s" what got.fingerprint
      expected.fingerprint;
  if got.events <> expected.events then
    fail "%s: %d events, expected %d" what got.events expected.events;
  if got.decided <> expected.decided then
    fail "%s: %d verdicts, expected %d" what got.decided expected.decided

(* Checks a realization's first run, or compares a later run with it. *)
let checker () =
  let firsts = Hashtbl.create 8 in
  fun ~what seed o ->
    match Hashtbl.find_opt firsts seed with
    | Some expected -> check_same_run ~what expected o
    | None ->
        Hashtbl.replace firsts seed (identity o);
        List.iter (fail "%s") (Workload.check o)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* --- End-to-end metrics, tracing off --- *)

(* Every pass replays each realization exactly, slice by slice. A
   slice's cost is its host time in reference seconds (see Clock), and
   its least disturbed cost over the passes is its cost on a quiet
   machine: the reference loop cancels drift that lasts longer than a
   slice, and the minimum over passes spread across the run filters the
   bursts shorter than one. *)
let quiet_seconds (runs : Workload.outcome list) =
  match runs with
  | [] -> 0.
  | first :: _ ->
      let cost (o : Workload.outcome) i =
        Clock.reference_seconds ~spin:o.spin_ns.(i) o.slice_ns.(i)
      in
      let total = ref 0. in
      Array.iteri
        (fun i _ ->
          total :=
            !total
            +. List.fold_left (fun acc o -> Float.min acc (cost o i)) Float.infinity runs)
        first.slice_ns;
      !total

(* Host cost per realization comes from all its passes: the fastest
   set-up and the quiet run time above. Allocation figures repeat
   exactly per realization, so they come from the first pass. Each
   metric is the median over realizations. *)
let end_to_end (w : Workload.t) ~seed ~seconds =
  let check = checker () in
  let seeds = Workload.sub_seeds w seed in
  let passes =
    repeat ~seconds (fun () ->
        List.map
          (fun s ->
            let setup_s, env = set_up w ~seed:s in
            let o = Workload.run_untraced w env in
            check ~what:"repeat" s o;
            (* Keep no verdict list: retained garbage would slow later runs. *)
            (setup_s, { o with verdicts = [] }))
          seeds)
  in
  let per_realization f =
    median
      (List.mapi (fun j _ -> f (List.map (fun pass -> List.nth pass j) passes)) seeds)
  in
  let per_trigger f (runs : (float * Workload.outcome) list) =
    let o = snd (List.hd runs) in
    f o /. float_of_int (Workload.triggers o)
  in
  let metrics =
    [ m "setup_s"
        (per_realization (fun runs ->
             List.fold_left (fun acc (s, _) -> Float.min acc s) Float.infinity runs))
        "s";
      m "triggers_per_s"
        (per_realization (fun runs ->
             let o = snd (List.hd runs) in
             float_of_int (Workload.triggers o) /. quiet_seconds (List.map snd runs)))
        "1/s";
      m "words_per_trigger"
        (per_realization (per_trigger (fun o -> o.words)))
        "words";
      m "promoted_words_per_trigger"
        (per_realization (per_trigger (fun o -> o.promoted)))
        "words" ]
  in
  Printf.printf "passes %d of %d realizations\n" (List.length passes)
    w.realizations;
  (Workload.merge (List.map snd (List.hd passes)), metrics)

(* --- Per-layer metrics: an untraced reference and a traced run --- *)

let phase_rows (led : Ledger.t) =
  List.concat_map
    (fun (phase, name) ->
      let samples =
        Array.of_list
          (Option.value (Hashtbl.find_opt led.phase_samples phase) ~default:[])
      in
      [ m (Printf.sprintf "phase.%s_ms.p50" name) (percentile samples 0.5) "ms";
        m (Printf.sprintf "phase.%s_ms.p99" name) (percentile samples 0.99) "ms" ])
    Jury_obs.Trace.
      [ (Replicate, "replicate");
        (Pipeline_service, "pipeline_service");
        (Cache_write, "cache_write");
        (Validate, "validate") ]

let layer_rows (led : Ledger.t) (o : Workload.outcome) ~untraced_wall_s =
  let wall = float_of_int led.wall_ns in
  let triggers = float_of_int (Workload.triggers o) in
  let per_layer =
    List.concat
      (List.mapi
         (fun i name ->
           [ count (name ^ ".steps") led.steps.(i);
             m (name ^ ".self_s") (float_of_int led.self_ns.(i) /. 1e9) "s";
             m (name ^ ".share") (float_of_int led.self_ns.(i) /. wall) "ratio";
             m (name ^ ".words") led.words.(i) "words";
             m (name ^ ".words_per_trigger") (led.words.(i) /. triggers) "words" ])
         (Array.to_list Ledger.names))
  in
  per_layer
  @ [ m "unattributed.share" (float_of_int (Ledger.unattributed_ns led) /. wall)
        "ratio";
      m "trace.overhead_x" (wall /. 1e9 /. untraced_wall_s) "x";
      count "trace.lost_events" led.lost_events ]

let count_rows (o : Workload.outcome) ~decap =
  let d = o.delta in
  let detect = Workload.detect_ms o in
  [ count "sim.events" d.events;
    count "net.packet_ins" d.packet_ins;
    count "net.flow_mods" d.flow_mods;
    count "net.drops" d.drops;
    count "store.events_applied" d.store_applied;
    m "store.bytes" (float_of_int d.store_bytes) "bytes";
    count "jury.replicated_triggers" d.replicated;
    m "jury.replication_bytes" (float_of_int d.replication_bytes) "bytes";
    count "channel.sent" d.chan_sent;
    count "channel.dropped" d.chan_dropped;
    count "channel.retransmits" d.chan_retransmits;
    count "validator.unverifiable" d.unverifiable;
    count "validator.faulty" d.faulty;
    count "validator.duplicates" d.duplicates;
    count "validator.late" d.late;
    count "validator.overloads" d.overloads;
    m "validator.ok_ratio"
      (ratio (Workload.ok_verdicts o) (if o.jury_on then Workload.attempted o else 0))
      "ratio";
    count "verdicts" d.decided;
    m "failed_frac" (ratio (Workload.failed o) (Workload.attempted o)) "ratio";
    m "detect_p50_ms" (percentile detect 0.5) "ms";
    m "detect_p99_ms" (percentile detect 0.99) "ms";
    m "jury.decap_us.p50" (percentile decap 0.5) "us";
    m "jury.decap_us.p99" (percentile decap 0.99) "us" ]

let per_layer (w : Workload.t) ~seed ~seconds =
  let gc = Micro.Gc_pause.create () in
  let poll () = Micro.Gc_pause.poll gc in
  let check = checker () in
  let passes =
    repeat ~seconds (fun () ->
        let led = Ledger.create () in
        let runs =
          List.map
            (fun s ->
              let _, env = set_up w ~seed:s in
              poll ();
              let pause0 = Micro.Gc_pause.total_s gc in
              let reference = Workload.run_untraced ~poll w env in
              let pause_s = Micro.Gc_pause.total_s gc -. pause0 in
              check ~what:"untraced repeat" s reference;
              let _, env = set_up w ~seed:s in
              let traced = Ledger.run ~poll led w env in
              check ~what:"traced run" s traced;
              let decap =
                match env.deployment with
                | Some dep -> Jury.Deployment.decap_samples_us dep
                | None -> [||]
              in
              (reference, pause_s, traced, decap))
            (Workload.sub_seeds w seed)
        in
        let references = List.map (fun (r, _, _, _) -> r) runs in
        let reference = Workload.merge references in
        let pause_s = List.fold_left (fun acc (_, p, _, _) -> acc +. p) 0. runs in
        let traced = Workload.merge (List.map (fun (_, _, t, _) -> t) runs) in
        let decap = Array.concat (List.map (fun (_, _, _, d) -> d) runs) in
        let stepped = Array.fold_left ( + ) 0 led.steps in
        if stepped <> traced.delta.events then
          fail "ledger: %d steps attributed, %d events ran" stepped
            traced.delta.events;
        if Ledger.unattributed_ns led < 0 then
          fail "ledger: layers' self time exceeds the traced wall time";
        ( { reference with verdicts = [] },
          layer_rows led traced ~untraced_wall_s:reference.wall_s
          @ phase_rows led @ count_rows traced ~decap
          @ [ m "top_heap_mb"
                (median
                   (List.map (fun (o : Workload.outcome) -> mb o.peak_heap_words)
                      references))
                "MB";
              count "gc.minor_collections" reference.minor_gcs;
              count "gc.major_collections" reference.major_gcs;
              m "gc.pause_s" pause_s "s" ] ))
  in
  let micro =
    List.concat_map
      (fun (ns_name, words_name, (ns, words)) ->
        [ m ns_name ns "ns"; m words_name words "words" ])
      (Micro.rows ())
  in
  if Micro.Gc_pause.lost gc > 0 then
    Printf.printf "note: %d runtime events lost; gc.pause_s is a lower bound\n"
      (Micro.Gc_pause.lost gc);
  Printf.printf "passes %d of %d realizations\n" (List.length passes)
    w.realizations;
  (fst (List.hd passes), median_metrics (List.map snd passes) @ micro)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. in
  let trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)") ]
  in
  let usage = "jurybench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  Printf.printf "workload %s seed %d trace %d\n%!" w.name !seed !trace;
  let o, metrics =
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
    else per_layer w ~seed:!seed ~seconds:!seconds
  in
  print_fingerprint w ~seed:!seed o;
  (* The benchmark runs single-process: no pool, no pipeline domains. *)
  if Jury_par.Pool.domains_spawned () <> 0 then
    fail "%d worker domains spawned" (Jury_par.Pool.domains_spawned ());
  List.iter (Printf.printf "error: %s\n") (List.rev !errors);
  print_result ~correct:(!errors = []) ~attempted:(Workload.attempted o)
    ~failed:(Workload.failed o) metrics
