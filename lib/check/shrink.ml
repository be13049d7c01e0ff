type outcome = {
  minimal : Case.t;
  failures : (Oracle.t * string) list;
  steps : int;
  shrunk : int;
}

let size (c : Case.t) =
  let opt = function None -> 0 | Some _ -> 1 in
  c.Case.switches + c.Case.hosts_per_switch + c.Case.nodes + c.Case.k
  + c.Case.triggers
  + (3 * List.length c.Case.faults)
  + (c.Case.duration_ms / 50)
  + (int_of_float c.Case.rate / 50)
  + (if c.Case.drop > 0. then 1 else 0)
  + (if c.Case.duplicate > 0. then 1 else 0)
  + (if c.Case.jitter_us > 0. then 1 else 0)
  + c.Case.retries
  + opt c.Case.degraded_quorum
  + opt c.Case.max_inflight
  + opt c.Case.batch_us
  + (if c.Case.odl then 1 else 0)
  + (if c.Case.topo = Case.Ring then 1 else 0)

(* Each axis proposes big jumps first (halving) so minimisation takes
   O(log) accepted steps per axis, then unit steps to polish. All
   record surgery goes through {!Case.Lens}, the axis surface shared
   with {!Mutate}: a lens [set] clamps to the axis's validity floor, so
   each proposal only has to pick the smaller value. *)
let candidates (c : Case.t) =
  let open Case in
  let set (a : _ Lens.axis) v = a.Lens.set c v in
  let proposals = ref [] in
  let add c' = proposals := c' :: !proposals in
  (* fault schedule: drop all, drop half, drop each one *)
  (match c.faults with
  | [] -> ()
  | faults ->
      add (set Lens.faults []);
      let n = List.length faults in
      if n > 1 then
        add (set Lens.faults (List.filteri (fun i _ -> i < n / 2) faults));
      List.iteri
        (fun i _ ->
          add (set Lens.faults (List.filteri (fun j _ -> j <> i) faults)))
        faults);
  (* trigger budget for the synthetic batching stream *)
  if c.triggers > 5 then add (set Lens.triggers (max 5 (c.triggers / 2)));
  if c.triggers > 5 then add (set Lens.triggers (c.triggers - 1));
  (* topology — the ring floor lives in the lens, the workloads' host
     floor is the cross-axis predicate no single lens can repair *)
  let add c' = if Lens.hosts_floor c' then add c' in
  let min_switches = Lens.min_switches c in
  if c.switches > min_switches then add (set Lens.switches (c.switches / 2));
  if c.switches > min_switches then add (set Lens.switches (c.switches - 1));
  if c.topo = Ring then add (set Lens.topo Linear);
  if c.hosts_per_switch > 1 && c.workload <> Blast then
    add (set Lens.hosts_per_switch 1);
  (* workload intensity *)
  if c.duration_ms > 100 then
    add (set Lens.duration_ms (max 100 (c.duration_ms / 2)));
  if c.rate > 50. then add (set Lens.rate (Float.max 50. (c.rate /. 2.)));
  (* cluster: the lenses keep k < nodes, the quorum <= k and every
     fault's node reference in range *)
  if c.nodes > 3 then add (set Lens.nodes (c.nodes - 1));
  if c.k > 1 then add (set Lens.k (c.k - 1));
  (* channel *)
  if c.drop > 0. || c.duplicate > 0. || c.jitter_us > 0. then
    add { c with drop = 0.; duplicate = 0.; jitter_us = 0. };
  if c.drop > 0. then add (set Lens.drop 0.);
  if c.duplicate > 0. then add (set Lens.duplicate 0.);
  if c.jitter_us > 0. then add (set Lens.jitter_us 0.);
  if c.retries > 0 then add (set Lens.retries 0);
  (* validator knobs *)
  if c.degraded_quorum <> None then add (set Lens.degraded_quorum None);
  if c.max_inflight <> None then add (set Lens.max_inflight None);
  if c.batch_us <> None then add (set Lens.batch_us None);
  if c.odl then add (set Lens.odl false);
  (* keep only strict reductions, largest jumps first as inserted *)
  List.filter (fun c' -> size c' < size c) (List.rev !proposals)

let minimise ?(max_steps = 200) ~oracles case failures =
  if failures = [] then invalid_arg "Shrink.minimise: case does not fail";
  (* Only re-check the oracles that originally failed: cheaper, and the
     repro stays a witness of the reported violation rather than
     drifting onto an unrelated one. *)
  let watched =
    List.filter
      (fun (o : Oracle.t) ->
        List.exists (fun ((f : Oracle.t), _) -> f.Oracle.name = o.Oracle.name)
          failures)
      oracles
  in
  (* A candidate that merely crashes an oracle (rather than reproducing
     a genuine violation) is not a smaller witness — unless the
     original failure was itself a crash. *)
  let is_crash (_, msg) =
    String.length msg >= 13 && String.sub msg 0 13 = "oracle raised"
  in
  let crashes_count = List.exists is_crash failures in
  let steps = ref 0 and shrunk = ref 0 in
  let still_fails c =
    incr steps;
    let fs = Oracle.check_case ~oracles:watched c in
    if crashes_count then fs else List.filter (fun f -> not (is_crash f)) fs
  in
  let rec fixpoint current current_failures =
    let rec try_candidates = function
      | [] -> (current, current_failures)
      | _ when !steps >= max_steps -> (current, current_failures)
      | cand :: rest -> (
          match still_fails cand with
          | [] -> try_candidates rest
          | fs ->
              incr shrunk;
              fixpoint cand fs)
    in
    if !steps >= max_steps then (current, current_failures)
    else try_candidates (candidates current)
  in
  let minimal, failures = fixpoint case failures in
  { minimal; failures; steps = !steps; shrunk = !shrunk }
