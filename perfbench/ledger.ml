(* The traced run: the per-layer ledger.

   The benchmark steps the engine itself with Engine.step, reads the
   monotonic clock and Gc.minor_words around every step, and charges
   the step's time and words to one layer. The layer comes from the
   Jury_obs.Trace events the step emitted (a Close resolves to the
   phase of its span's Open); when a step emitted more than one layer,
   the one latest in a trigger's life wins. A step that emitted nothing
   is charged by the public counters it moved — a pipeline completion
   to the controller, a fabric apply to the store — and otherwise to
   the network. Everything outside the steps (the benchmark's own
   bookkeeping) is the unattributed remainder. *)

open Jury_sim
module Trace = Jury_obs.Trace
module Setup = Jury_experiments.Setup

(* In ascending priority. *)
let names =
  [| "net"; "jury.replicate"; "store"; "controller"; "validator.ingest";
     "validator.verdict" |]

let net = 0
let replicate = 1
let store = 2
let controller = 3
let ingest = 4
let verdict = 5
let none = -1

(* The widest step seen emits 15 events (a replicator fanning one
   trigger out to k = 6 secondaries, plus retransmissions); a larger
   ring makes every read dearer, since Trace.events copies the whole
   ring. Overflow is counted in [lost_events]. *)
let ring_capacity = 32

let layer_of_phase = function
  | Trace.Trigger | Trace.Intercept | Trace.Replicate -> replicate
  | Trace.Pipeline_service -> controller
  | Trace.Cache_write -> store
  | Trace.Net_write -> net
  | Trace.Validate | Trace.Batch -> ingest
  | Trace.Verdict -> verdict

type t = {
  steps : int array;
  self_ns : int array;
  words : float array;
  mutable wall_ns : int;
  mutable lost_events : int;  (** emitted but overwritten before read *)
  phase_samples : (Trace.phase, float list) Hashtbl.t;
      (** per-trigger Span.phase_breakdown_ms values *)
}

let attributed_ns t = Array.fold_left ( + ) 0 t.self_ns
let unattributed_ns t = t.wall_ns - attributed_ns t

(* Rebuilds each trigger's span tree from the events read step by step
   and records its phase breakdown once the root closes, so memory
   stays bounded by the triggers in flight. *)
type spans = {
  phase_of : (Trace.span_id, Trace.phase) Hashtbl.t;  (** open spans *)
  pending : (Trace.span_id, Trace.event list) Hashtbl.t;  (** root -> rev events *)
}

let root_of (ev : Trace.event) =
  match ev.parent with Some r -> r | None -> ev.span

let record_breakdown t events =
  match Jury_obs.Span.assemble (List.rev events) with
  | [ root ] ->
      List.iter
        (fun (phase, ms) ->
          let prev =
            Option.value (Hashtbl.find_opt t.phase_samples phase) ~default:[]
          in
          Hashtbl.replace t.phase_samples phase (ms :: prev))
        (Jury_obs.Span.phase_breakdown_ms root)
  | _ -> ()

(* The layer one event names, and its effect on the span bookkeeping. *)
let observe t spans (ev : Trace.event) =
  let layer =
    match ev.kind with
    | Trace.Open Trace.Pipeline_service ->
        (* Enqueueing is the submitter's work; the pipeline's own work
           happens in the step that closes the span. *)
        Hashtbl.replace spans.phase_of ev.span Trace.Pipeline_service;
        none
    | Trace.Open phase ->
        Hashtbl.replace spans.phase_of ev.span phase;
        layer_of_phase phase
    | Trace.Close -> (
        match Hashtbl.find_opt spans.phase_of ev.span with
        | None -> none
        | Some phase ->
            Hashtbl.remove spans.phase_of ev.span;
            if phase = Trace.Trigger then verdict else layer_of_phase phase)
    | Trace.Point phase ->
        (* Channel fate (drop/duplicate) is stamped by the sender. *)
        if List.mem_assoc "channel" ev.attrs then none else layer_of_phase phase
  in
  (match ev.kind with
  | Trace.Open Trace.Trigger -> Hashtbl.replace spans.pending ev.span [ ev ]
  | _ -> (
      let root = root_of ev in
      match Hashtbl.find_opt spans.pending root with
      | None -> ()
      | Some evs ->
          if ev.kind = Trace.Close && ev.parent = None then begin
            Hashtbl.remove spans.pending root;
            record_breakdown t (ev :: evs)
          end
          else Hashtbl.replace spans.pending root (ev :: evs)));
  layer

let create () =
  { steps = Array.make (Array.length names) 0;
    self_ns = Array.make (Array.length names) 0;
    words = Array.make (Array.length names) 0.;
    wall_ns = 0;
    lost_events = 0;
    phase_samples = Hashtbl.create 8 }

(* One traced run of [w] on [env], charged into [t] (several runs may
   share one ledger); returns the run's outcome. *)
let run ?(poll = ignore) t (w : Workload.t) (env : Setup.env) =
  let spans = { phase_of = Hashtbl.create 4096; pending = Hashtbl.create 4096 } in
  (* Attached after set-up, so every span the window sees opens in it. *)
  let trace = Trace.create ~capacity:ring_capacity () in
  Engine.set_trace env.engine trace;
  let pipelines =
    Array.map Jury_controller.Controller.pipeline
      (Jury_controller.Cluster.controllers env.cluster)
  in
  let fabric = Jury_controller.Cluster.fabric env.cluster in
  let completed () =
    Array.fold_left (fun acc p -> acc + Jury_controller.Pipeline.completed p) 0 pipelines
  in
  let last_completed = ref (completed ()) in
  let last_applied = ref (Jury_store.Fabric.events_applied fabric) in
  let last_pushed = ref 0 in
  let before = Workload.snapshot env in
  let horizon = Workload.start w env in
  (* Engine.run ~until:h runs every event at or before h, including
     those that events at h schedule at h. A sentinel at h re-arms
     itself at h when it fires; firing twice in a row proves nothing
     at or before h is left, so the loop stops exactly where
     Engine.run would have (a bare step loop runs one event past it). *)
  let sentinel_fired = ref false in
  let sentinel () = sentinel_fired := true in
  ignore (Engine.schedule_at env.engine ~at:horizon sentinel);
  let previous_was_sentinel = ref false in
  let sentinel_steps = ref 0 in
  let words0 = Array.fold_left ( +. ) 0. t.words in
  let stop = ref false in
  let g0 = Gc.quick_stat () in
  let wall0 = Clock.now_ns () in
  let n = ref 0 and peak = ref 0 in
  while not !stop do
    let t0 = Clock.now_ns () in
    let w0 = Gc.minor_words () in
    ignore (Engine.step env.engine);
    let w1 = Gc.minor_words () in
    let t1 = Clock.now_ns () in
    if !sentinel_fired then begin
      sentinel_fired := false;
      incr sentinel_steps;
      if !previous_was_sentinel then stop := true
      else begin
        previous_was_sentinel := true;
        ignore (Engine.schedule_at env.engine ~at:horizon sentinel)
      end
    end
    else begin
      previous_was_sentinel := false;
      let layer = ref none in
      let pushed = Trace.length trace + Trace.dropped trace in
      let fresh = pushed - !last_pushed in
      last_pushed := pushed;
      if fresh > 0 then begin
        let len = Trace.length trace in
        if fresh > len then t.lost_events <- t.lost_events + fresh - len;
        let skip = len - fresh in
        List.iteri
          (fun i ev ->
            if i >= skip then
              let l = observe t spans ev in
              if l > !layer then layer := l)
          (Trace.events trace)
      end;
      let c = completed () in
      let a = Jury_store.Fabric.events_applied fabric in
      if !layer = none then
        layer :=
          if c <> !last_completed then controller
          else if a <> !last_applied then store
          else net;
      last_completed := c;
      last_applied := a;
      let l = !layer in
      t.steps.(l) <- t.steps.(l) + 1;
      t.self_ns.(l) <- t.self_ns.(l) + (t1 - t0);
      t.words.(l) <- t.words.(l) +. (w1 -. w0)
    end;
    incr n;
    if !n land 4095 = 0 then begin
      peak := max !peak (Gc.quick_stat ()).heap_words;
      poll ()
    end
  done;
  let wall_ns = Clock.now_ns () - wall0 in
  t.wall_ns <- t.wall_ns + wall_ns;
  poll ();
  let g1 = Gc.quick_stat () in
  Engine.set_trace env.engine (Trace.null ());
  let after = Workload.snapshot env in
  (* The sentinel's own executions are not the program's events. *)
  let after = { after with events = after.events - !sentinel_steps } in
  Workload.outcome env ~before ~after
    ~wall_s:(float_of_int wall_ns /. 1e9)
    ~words:(Array.fold_left ( +. ) 0. t.words -. words0)
    ~promoted:(g1.promoted_words -. g0.promoted_words)
    ~minor_gcs:(g1.minor_collections - g0.minor_collections)
    ~major_gcs:(g1.major_collections - g0.major_collections)
    ~peak_heap_words:!peak
