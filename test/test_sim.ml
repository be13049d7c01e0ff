(* Unit and property tests for the discrete-event engine substrate. *)

open Jury_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time --- *)

let test_time_units () =
  check_int "us" 1_000 (Time.to_ns (Time.us 1));
  check_int "ms" 1_000_000 (Time.to_ns (Time.ms 1));
  check_int "sec" 1_000_000_000 (Time.to_ns (Time.sec 1));
  Alcotest.(check (float 1e-9)) "to_float_sec" 1.5
    (Time.to_float_sec (Time.of_float_sec 1.5));
  Alcotest.(check (float 1e-6)) "ms roundtrip" 129.3
    (Time.to_float_ms (Time.of_float_ms 129.3))

let test_time_arith () =
  let a = Time.ms 5 and b = Time.ms 3 in
  check_int "add" 8_000_000 (Time.to_ns (Time.add a b));
  check_int "sub" 2_000_000 (Time.to_ns (Time.sub a b));
  check_int "diff sym" (Time.to_ns (Time.diff a b)) (Time.to_ns (Time.diff b a));
  check_int "mul" 15_000_000 (Time.to_ns (Time.mul a 3));
  check_int "div" 2_500_000 (Time.to_ns (Time.div a 2));
  Alcotest.check_raises "negative sub" (Invalid_argument "Time.sub: negative result")
    (fun () -> ignore (Time.sub b a));
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.ns: negative")
    (fun () -> ignore (Time.ns (-1)))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string (Time.ns 500));
  Alcotest.(check string) "us" "12.0us" (Time.to_string (Time.us 12));
  Alcotest.(check string) "ms" "129.0ms" (Time.to_string (Time.ms 129));
  Alcotest.(check string) "sec" "2.000s" (Time.to_string (Time.sec 2))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let x = Rng.bits64 child and y = Rng.bits64 parent in
  check_bool "split differs from parent" true (x <> y)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "int in range" true (v >= 0 && v < 17);
    let w = Rng.int_in rng 5 9 in
    check_bool "int_in range" true (w >= 5 && w <= 9);
    let f = Rng.float rng 2.5 in
    check_bool "float in range" true (f >= 0. && f < 2.5)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 10.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "exponential mean near 10" true (mean > 9. && mean < 11.)

let test_rng_bernoulli () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 10_000. in
  check_bool "bernoulli ~0.3" true (p > 0.27 && p < 0.33)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 17 in
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let s = Rng.sample_without_replacement rng 3 xs in
  check_int "sample size" 3 (List.length s);
  check_int "distinct" 3 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> check_bool "member" true (List.mem x xs)) s;
  check_int "k >= n returns all" 7
    (List.length (Rng.sample_without_replacement rng 10 xs))

let test_rng_choice_shuffle () =
  let rng = Rng.create 19 in
  let arr = Array.init 10 Fun.id in
  for _ = 1 to 50 do
    let c = Rng.choice rng arr in
    check_bool "choice member" true (c >= 0 && c < 10)
  done;
  let arr2 = Array.copy arr in
  Rng.shuffle rng arr2;
  Array.sort compare arr2;
  Alcotest.(check (array int)) "shuffle is permutation" arr arr2

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Heap.create () in
  let rng = Rng.create 23 in
  for i = 1 to 500 do
    Heap.push h ~key:(Time.us (Rng.int rng 1000)) ~seq:i i
  done;
  let prev = ref (Time.zero, 0) in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Heap.pop h with
    | None -> continue := false
    | Some (key, seq, _) ->
        let pk, ps = !prev in
        check_bool "non-decreasing key" true
          (Time.compare pk key < 0 || (Time.equal pk key && ps < seq));
        prev := (key, seq);
        incr count
  done;
  check_int "all popped" 500 !count

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.push h ~key:(Time.ms 1) ~seq:i i
  done;
  for i = 1 to 10 do
    match Heap.pop h with
    | Some (_, _, v) -> check_int "fifo order on ties" i v
    | None -> Alcotest.fail "heap empty early"
  done

(* Popped payloads must become collectable even while the heap stays
   live: the backing array must not pin them at vacated slots. *)
let test_heap_pop_releases () =
  let h = Heap.create () in
  let weaks = Weak.create 64 in
  for i = 0 to 63 do
    let payload = ref i in
    Weak.set weaks i (Some payload);
    Heap.push h ~key:(Time.us i) ~seq:i payload
  done;
  (* Drain half, then churn with fresh payloads so the heap keeps a
     non-trivial live region the whole time. *)
  for _ = 1 to 32 do
    ignore (Heap.pop h)
  done;
  for i = 64 to 95 do
    Heap.push h ~key:(Time.us i) ~seq:i (ref i)
  done;
  for _ = 1 to 16 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  (* Tracked payloads 0..47 were popped; 48..63 are still queued and
     must stay pinned — exactly 16 weak refs survive. *)
  let pinned = ref 0 in
  for i = 0 to 63 do
    if Weak.check weaks i then incr pinned
  done;
  check_int "only queued payloads pinned" 16 !pinned;
  check_int "live region intact" 48 (Heap.length h);
  (* Drain to empty: the array itself must be dropped. *)
  while Heap.pop h <> None do
    ()
  done;
  Gc.full_major ();
  let pinned = ref 0 in
  for i = 0 to 63 do
    if Weak.check weaks i then incr pinned
  done;
  check_int "empty heap pins nothing" 0 !pinned

(* Every vacated slot must let go of its payload, including the slot
   left behind when an entry moves into a hole and is popped later, and
   the slots [remove_seq] frees. *)
let test_heap_vacated_slots_release () =
  let h = Heap.create () in
  let weaks = Weak.create 64 in
  for i = 0 to 63 do
    let payload = ref i in
    Weak.set weaks i (Some payload);
    Heap.push h ~key:(Time.us (i mod 8)) ~seq:i payload
  done;
  for i = 0 to 15 do
    ignore (Heap.remove_seq h ~seq:(4 * i))
  done;
  for _ = 1 to 40 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let pinned = ref 0 in
  for i = 0 to 63 do
    if Weak.check weaks i then incr pinned
  done;
  check_int "only queued payloads pinned" (Heap.length h) !pinned;
  check_int "queued" 8 (Heap.length h)

(* Model-based check: random interleavings of every heap operation
   against a reference list kept sorted by (key, tie). Keys come from a
   small range so ties are common; sequence numbers are unique, as the
   engine's are. *)
type heap_op = Push of int | Pop | Take | Peek | Remove of int | Tied

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun k -> Push k) (int_bound 12));
        (1, return Pop);
        (1, return Take);
        (1, return Peek);
        (1, map (fun s -> Remove s) (int_bound 80));
        (1, return Tied) ])

let print_heap_op = function
  | Push k -> Printf.sprintf "push %d" k
  | Pop -> "pop"
  | Take -> "take"
  | Peek -> "peek"
  | Remove s -> Printf.sprintf "remove %d" s
  | Tied -> "tied"

let prop_heap_model (name, tie) =
  QCheck.Test.make ~name:("heap matches sorted-list model, " ^ name)
    ~count:300
    (QCheck.make
       ~print:(QCheck.Print.list print_heap_op)
       QCheck.Gen.(list_size (int_bound 120) heap_op_gen))
    (fun ops ->
      let h = Heap.create ~tie () in
      let cmp (k1, s1, _) (k2, s2, _) =
        if k1 <> k2 then compare k1 k2
        else if s1 = s2 then 0
        else if tie s1 s2 then -1
        else 1
      in
      let model = ref [] and next = ref 0 in
      let entry (k, s, v) = (Time.ns k, s, v) in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Push k ->
                let s = !next in
                incr next;
                Heap.push h ~key:(Time.ns k) ~seq:s (string_of_int s);
                model := List.sort cmp ((k, s, string_of_int s) :: !model);
                true
            | Pop -> (
                match !model with
                | [] -> Heap.pop h = None
                | m :: rest ->
                    model := rest;
                    Heap.pop h = Some (entry m))
            | Take -> (
                (* The allocation-free pair the event loop uses. *)
                match !model with
                | [] -> (
                    match Heap.pop_min h with
                    | _ -> false
                    | exception Invalid_argument _ -> true)
                | (k, _, v) :: rest ->
                    model := rest;
                    let key = Heap.min_key h in
                    Time.to_ns key = k && Heap.pop_min h = v)
            | Peek -> (
                match !model with
                | [] -> (
                    match Heap.min_key h with
                    | _ -> false
                    | exception Invalid_argument _ -> true)
                | (k, _, _) :: _ -> Time.to_ns (Heap.min_key h) = k)
            | Remove s -> (
                match List.find_opt (fun (_, s', _) -> s' = s) !model with
                | None -> Heap.remove_seq h ~seq:s = None
                | Some m ->
                    model := List.filter (fun e -> e != m) !model;
                    Heap.remove_seq h ~seq:s = Some (entry m))
            | Tied ->
                let tied =
                  match !model with
                  | [] -> []
                  | (k, _, _) :: _ ->
                      List.filter (fun (k', _, _) -> k' = k) !model
                      |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
                in
                Heap.tied_front h = List.map entry tied
          in
          ok && Heap.length h = List.length !model)
        ops)

let heap_model_props =
  List.map prop_heap_model
    [ ("fifo", Heap.fifo);
      ("lifo", Heap.lifo);
      (* Odd sequence numbers first, each parity class in order. *)
      ("odd first", fun a b -> (a land 1 = 0, a) < (b land 1 = 0, b)) ]

(* --- Engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:(Time.ms 2) (fun () -> log := 2 :: !log));
  ignore (Engine.schedule e ~after:(Time.ms 1) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~after:(Time.ms 3) (fun () -> log := 3 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 3_000_000 (Time.to_ns (Engine.now e))

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~after:(Time.ms 1) (fun () -> fired := true) in
  check_bool "pending" true (Engine.is_pending h);
  Engine.cancel h;
  check_bool "not pending" false (Engine.is_pending h);
  Engine.run e;
  check_bool "cancelled never fires" false !fired

let test_engine_cancelled_events_counted () =
  let e = Engine.create () in
  let fired = ref 0 in
  let hs =
    List.init 3 (fun i ->
        Engine.schedule e ~after:(Time.ms (i + 1)) (fun () -> incr fired))
  in
  Engine.cancel (List.nth hs 1);
  Engine.run e;
  check_int "callbacks fired" 2 !fired;
  check_int "cancelled event drains and counts" 3 (Engine.executed_events e)

(* Dispatching an event allocates its queued record and nothing else:
   no option, tuple or wrapper per schedule, step or heap sift. The
   footprint is passed as a ready-made option because writing
   [~footprint:fp] boxes [Some fp] at the call site, before the engine
   is entered. *)
let test_engine_event_allocation () =
  let e = Engine.create () in
  let action () = () in
  let footprint = Some (Footprint.touches [ Footprint.switch 1 ]) in
  let dispatch () =
    ignore (Engine.schedule e ?footprint ~after:Time.zero action);
    ignore (Engine.step e)
  in
  (* Keep a standing queue so every step sifts, and let the queue's
     arrays reach their final size before counting. *)
  for i = 1 to 64 do
    ignore (Engine.schedule e ~after:(Time.sec i) action)
  done;
  for _ = 1 to 100 do dispatch () done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do dispatch () done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_bool
    (Printf.sprintf "%.2f minor words per event <= 4" words)
    true (words <= 4.)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(Time.ms i) (fun () -> incr fired))
  done;
  Engine.run e ~until:(Time.ms 5);
  check_int "only first five" 5 !fired;
  check_int "clock at horizon" 5_000_000 (Time.to_ns (Engine.now e));
  Engine.run e;
  check_int "rest run later" 10 !fired

let test_engine_every () =
  let e = Engine.create () in
  let fired = ref 0 in
  let h = Engine.every e ~period:(Time.ms 10) (fun () -> incr fired) in
  Engine.run e ~until:(Time.ms 55);
  check_int "five periods" 5 !fired;
  Engine.cancel h;
  Engine.run e ~until:(Time.ms 200);
  check_int "stopped after cancel" 5 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:(Time.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~after:(Time.ms 1) (fun () ->
                log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:(Time.ms 5) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Engine.schedule_at e ~at:(Time.ms 1) (fun () -> ())))

let test_engine_every_jitter () =
  let e = Engine.create ~seed:4 () in
  let stamps = ref [] in
  let h =
    Engine.every e ~period:(Time.ms 10) ~jitter:(Time.ms 5) (fun () ->
        stamps := Engine.now e :: !stamps)
  in
  Engine.run e ~until:(Time.ms 200);
  Engine.cancel h;
  let stamps = List.rev !stamps in
  check_bool "fired repeatedly" true (List.length stamps >= 10);
  (* gaps lie within [period, period + jitter] *)
  let rec gaps_ok = function
    | a :: (b :: _ as rest) ->
        let gap = Time.to_ns (Time.sub b a) in
        gap >= 10_000_000 && gap <= 15_000_001 && gaps_ok rest
    | _ -> true
  in
  check_bool "jitter bounded" true (gaps_ok stamps)

let test_engine_run_until_boundary () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~after:(Time.ms 5) (fun () -> fired := true));
  (* an event exactly at the horizon runs *)
  Engine.run e ~until:(Time.ms 5);
  check_bool "boundary event runs" true !fired

(* --- Metrics --- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.record m "lat" 1.0;
  Metrics.record m "lat" 2.0;
  Metrics.record_time m "lat" (Time.ms 3);
  Alcotest.(check (array (float 1e-9))) "samples" [| 1.; 2.; 3. |]
    (Metrics.samples m "lat");
  Metrics.incr m "hits";
  Metrics.incr m ~by:4 "hits";
  check_int "counter" 5 (Metrics.count m "hits");
  check_int "missing counter" 0 (Metrics.count m "nope");
  Alcotest.(check (list string)) "names" [ "lat" ] (Metrics.series_names m);
  Metrics.clear m;
  check_int "cleared" 0 (Array.length (Metrics.samples m "lat"))

(* --- QCheck properties --- *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (int_bound 100_000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:(Time.ns k) ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (_, _, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare keys
      || List.sort compare popped = List.sort compare keys
         && List.for_all2 ( <= )
              (List.filteri (fun i _ -> i < List.length popped - 1) popped)
              (List.tl popped))

(* The unsorting fast paths for short lists must build exactly the
   footprint the general sort does: checked through the printed id
   order and the commutation test. *)
let prop_footprint_touches =
  QCheck.Test.make ~name:"footprint touches = sort_uniq" ~count:1000
    QCheck.(list_of_size Gen.(int_bound 5) (int_bound 6))
    (fun raw ->
      let fp = Footprint.touches (List.map Footprint.switch raw) in
      let expected = List.sort_uniq compare raw in
      Format.asprintf "%a" Footprint.pp fp
      = "{"
        ^ String.concat "," (List.map (Printf.sprintf "sw:%d") expected)
        ^ "}"
      && List.for_all
           (fun i ->
             Footprint.independent fp
               (Footprint.touches [ Footprint.switch i ])
             = not (List.mem i expected))
           [ 0; 1; 2; 3; 4; 5; 6 ])

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int bounded" ~count:500
    QCheck.(pair int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let suite =
  [ ("time units", `Quick, test_time_units);
    ("time arithmetic", `Quick, test_time_arith);
    ("time pretty-printing", `Quick, test_time_pp);
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng bernoulli", `Quick, test_rng_bernoulli);
    ("rng sampling", `Quick, test_rng_sample_without_replacement);
    ("rng choice and shuffle", `Quick, test_rng_choice_shuffle);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo on ties", `Quick, test_heap_fifo_ties);
    ("heap pop releases payloads", `Quick, test_heap_pop_releases);
    ("heap vacated slots release payloads", `Quick,
     test_heap_vacated_slots_release);
    ("engine ordering", `Quick, test_engine_ordering);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine counts drained cancelled events", `Quick,
     test_engine_cancelled_events_counted);
    ("engine dispatch allocates the event only", `Quick,
     test_engine_event_allocation);
    ("engine run until", `Quick, test_engine_until);
    ("engine every", `Quick, test_engine_every);
    ("engine nested schedule", `Quick, test_engine_nested_schedule);
    ("engine rejects past", `Quick, test_engine_past_rejected);
    ("metrics", `Quick, test_metrics);
    ("engine every with jitter", `Quick, test_engine_every_jitter);
    ("engine horizon boundary", `Quick, test_engine_run_until_boundary);
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_footprint_touches;
    QCheck_alcotest.to_alcotest prop_rng_int_bounds ]
  @ List.map QCheck_alcotest.to_alcotest heap_model_props
