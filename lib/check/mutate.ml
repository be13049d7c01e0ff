module Rng = Jury_sim.Rng
module Lens = Case.Lens

type t = {
  name : string;
  mutate : Rng.t -> Case.t -> Case.t option;
}

(* --- fault-schedule helpers --- *)

let nth_fault rng (c : Case.t) =
  match c.Case.faults with
  | [] -> None
  | fs ->
      let i = Rng.int rng (List.length fs) in
      Some (i, List.nth fs i)

let set_faults (c : Case.t) fs = Lens.faults.Lens.set c fs

(* The full lever vocabulary — including the four stateful levers the
   blind generator never draws (crash-rejoin, Byzantine, partition,
   policy churn), so guided fuzzing is the one door into them. *)
let fresh_action rng (c : Case.t) : Case.fault_action =
  let node = Rng.int rng c.Case.nodes in
  let caches = [| "SWITCHDB"; "LINKSDB"; "HOSTDB"; "FLOWSDB" |] in
  let rules =
    [| "deny name=fuzz-external-hostdb trigger=external cache=HOSTDB";
       "deny name=fuzz-internal-linksdb trigger=internal cache=LINKSDB";
       "deny name=fuzz-external-flowsdb trigger=external cache=FLOWSDB";
       "deny name=fuzz-any-switchdb cache=SWITCHDB" |]
  in
  match Rng.int rng 17 with
  | 0 -> Case.Slow { node; delay_ms = 1 + Rng.int rng 120 }
  | 1 -> Case.Lossy { node; omit = Rng.float rng 1.0 }
  | 2 -> Case.Crash { node }
  | 3 -> Case.Drop_sends { node }
  | 4 -> Case.Blackhole { node }
  | 5 -> Case.Lock_cache { node; cache = Rng.choice rng caches }
  | 6 -> Case.Heal { node }
  (* the stateful half of the vocabulary gets the heavier weight: it
     is reachable only through mutation *)
  | 7 | 8 -> Case.Rejoin { node }
  | 9 | 10 -> Case.Byzantine { node }
  | 11 | 12 -> Case.Partition { node }
  | 13 | 14 -> Case.Add_rule { rule = Rng.choice rng rules }
  | _ -> Case.Fail_master { node }

let fault_splice rng (c : Case.t) =
  match c.Case.faults with
  | [] | [ _ ] -> None
  | fs ->
      let n = List.length fs in
      let i = Rng.int rng n in
      let j = Rng.int rng n in
      if i = j then None
      else
        let fi = List.nth fs i and fj = List.nth fs j in
        let fs' =
          List.mapi
            (fun idx f ->
              if idx = i then { fi with Case.at_ms = fj.Case.at_ms }
              else if idx = j then { fj with Case.at_ms = fi.Case.at_ms }
              else f)
            fs
        in
        Some (set_faults c fs')

let fault_duplicate rng (c : Case.t) =
  match nth_fault rng c with
  | None -> None
  | Some (_, f) ->
      let at_ms = Rng.int rng (max 1 c.Case.duration_ms) in
      Some (set_faults c ({ f with Case.at_ms } :: c.Case.faults))

let fault_shift rng (c : Case.t) =
  match nth_fault rng c with
  | None -> None
  | Some (i, f) ->
      let delta = Rng.int_in rng (-c.Case.duration_ms / 2) (c.Case.duration_ms / 2) in
      if delta = 0 then None
      else
        let fs' =
          List.mapi
            (fun idx g ->
              if idx = i then { g with Case.at_ms = f.Case.at_ms + delta }
              else g)
            c.Case.faults
        in
        Some (set_faults c fs')

let fault_drop rng (c : Case.t) =
  match nth_fault rng c with
  | None -> None
  | Some (i, _) ->
      Some (set_faults c (List.filteri (fun idx _ -> idx <> i) c.Case.faults))

let fault_inject rng (c : Case.t) =
  let at_ms = Rng.int rng (max 1 c.Case.duration_ms) in
  let action = fresh_action rng c in
  Some (set_faults c ({ Case.at_ms; action } :: c.Case.faults))

(* --- workload perturbation --- *)

let burst_rate rng (c : Case.t) =
  let factor = Rng.choice rng [| 0.25; 0.5; 2.; 4.; 8. |] in
  Some (Lens.rate.Lens.set c (c.Case.rate *. factor))

let burst_duration rng (c : Case.t) =
  let factor = Rng.choice rng [| 0.5; 2. |] in
  Some
    (Lens.duration_ms.Lens.set c
       (int_of_float (float_of_int c.Case.duration_ms *. factor)))

let workload_flip rng (c : Case.t) =
  let w =
    Rng.choice rng [| Case.Mix; Case.Connections; Case.Joins; Case.Blast |]
  in
  if w = c.Case.workload then None else Some (Lens.workload.Lens.set c w)

let topo_flip rng (c : Case.t) =
  let t = Rng.choice rng [| Case.Linear; Case.Ring; Case.Star; Case.Single |] in
  if t = c.Case.topo then None else Some (Lens.topo.Lens.set c t)

let trigger_churn rng (c : Case.t) =
  Some (Lens.triggers.Lens.set c (1 + Rng.int rng 80))

(* --- knob churn --- *)

let channel_churn rng (c : Case.t) =
  match Rng.int rng 4 with
  | 0 -> Some (Lens.drop.Lens.set c (Rng.float rng 0.3))
  | 1 -> Some (Lens.duplicate.Lens.set c (Rng.float rng 0.3))
  | 2 -> Some (Lens.jitter_us.Lens.set c (Rng.float rng 400.))
  | _ -> Some (Lens.retries.Lens.set c (Rng.int rng 4))

let validator_churn rng (c : Case.t) =
  match Rng.int rng 3 with
  | 0 ->
      Some
        (Lens.max_inflight.Lens.set c
           (if Rng.bool rng then None else Some (1 + Rng.int rng 64)))
  | 1 ->
      Some
        (Lens.batch_us.Lens.set c
           (if Rng.bool rng then None else Some (50 + Rng.int rng 450)))
  | _ ->
      Some
        (Lens.degraded_quorum.Lens.set c
           (if Rng.bool rng then None else Some (1 + Rng.int rng c.Case.k)))

let cluster_churn rng (c : Case.t) =
  match Rng.int rng 3 with
  | 0 -> Some (Lens.nodes.Lens.set c (3 + Rng.int rng 7))
  | 1 -> Some (Lens.k.Lens.set c (1 + Rng.int rng (c.Case.nodes - 1)))
  | _ -> Some (Lens.odl.Lens.set c (not c.Case.odl))

let all =
  [ { name = "fault-splice"; mutate = fault_splice };
    { name = "fault-duplicate"; mutate = fault_duplicate };
    { name = "fault-shift"; mutate = fault_shift };
    { name = "fault-drop"; mutate = fault_drop };
    { name = "fault-inject"; mutate = fault_inject };
    { name = "burst-rate"; mutate = burst_rate };
    { name = "burst-duration"; mutate = burst_duration };
    { name = "workload-flip"; mutate = workload_flip };
    { name = "topo-flip"; mutate = topo_flip };
    { name = "trigger-churn"; mutate = trigger_churn };
    { name = "channel-churn"; mutate = channel_churn };
    { name = "validator-churn"; mutate = validator_churn };
    { name = "cluster-churn"; mutate = cluster_churn } ]

let names = List.map (fun m -> m.name) all
let find name = List.find_opt (fun m -> m.name = name) all

let apply m ~step_seed case =
  let rng = Rng.create step_seed in
  match m.mutate rng case with
  | None -> None
  | Some case' ->
      if Case.equal case' case then None
      else if not (Lens.hosts_floor case') then None
      else Some case'
