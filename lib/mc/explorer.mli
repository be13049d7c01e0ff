(** Exhaustive small-scope schedule exploration with DPOR-style pruning.

    For deployments small enough to enumerate (the sweet spot is two or
    three switches and a handful of triggers), the explorer runs the
    {e same} case under every tie-break order the event queue admits and
    checks that no schedule changes what JURY concludes. Each schedule
    is a complete, stateless re-execution through
    {!Jury_check.Run.execute} with a {!Jury_sim.Engine.chooser} that
    follows a {!Trace.t}; nothing about the engine is rolled back or
    snapshotted, so exploration composes with every existing oracle.

    {2 What is checked on every schedule}

    + {b Schedule-blindness}: the outcome's
      {!Jury_check.Run.schedule_blind} projection (verdict counts plus
      each trigger's verdict class, primary and suspect set, with
      serials wildcarded and timestamps dropped) must equal the FIFO
      reference's. Tie order may shift taint serials and per-trigger
      timings; it must never gain, lose or change a verdict.
    + {b The oracle battery}: the requested {!Jury_check.Oracle.t}s run
      against a context pinned to the explored schedule — every
      re-execution an oracle performs (replay, reliability override, the
      parallel mini-sweep) replays the same trace via {!executor}.

    {2 Pruning}

    At a choice point with candidates [c0 .. cn-1] the explorer always
    continues with [c0] and branches to [cj] ([j > 0]) only if [cj]'s
    declared {!Jury_sim.Footprint.t} is {e dependent} with some earlier
    candidate's ([not (Footprint.independent ci cj)] for some [i < j]).
    If [cj] commutes with every earlier candidate, running it first is
    observably equivalent to some schedule that runs [c0] first and
    [cj] at a later choice point, so the branch is redundant. Soundness
    rests on footprints being conservative (undeclared events are
    {!Jury_sim.Footprint.opaque}, which conflicts with everything) and
    honest — see [DESIGN.md] for the full argument and the modes
    (adaptive timeouts, inflight caps, mastership churn) under which
    components deliberately degrade their declarations to opaque.

    Exploration only ever runs deterministic-latency deployments
    ([Run.execute ~deterministic:true]): stochastic jitter would let
    tied events race through shared RNG streams, breaking commutation
    behind the footprints' back. *)

type stats = {
  explored : int;  (** schedules fully executed (the reference included) *)
  choice_points : int;
      (** chooser consultations summed over explored schedules *)
  deepest : int;   (** most choice points seen in any single schedule *)
  branched : int;  (** alternative branches enqueued at choice points *)
  pruned : int;
      (** alternative branches skipped because the candidate commutes
          with every earlier candidate at its choice point *)
  truncated : bool;
      (** true if [max_schedules] or [max_depth] cut enumeration short:
          counts are lower bounds and absence of divergence is no
          longer a proof *)
}

(** One schedule that broke an invariant. *)
type divergence = {
  div_trace : Trace.t;  (** replay with {!replay} or [jury_cli mc --trace] *)
  div_diff : string option;
      (** first schedule-blind difference vs the FIFO reference *)
  div_failures : (Jury_check.Oracle.t * string) list;
      (** oracle-battery failures on this schedule *)
}

type report = {
  rep_case : Jury_check.Case.t;
  rep_reference : Jury_check.Run.outcome;  (** the FIFO (empty-trace) run *)
  rep_stats : stats;
  rep_divergences : divergence list;  (** in discovery order *)
}

val explore :
  ?prune:bool -> ?max_schedules:int -> ?max_depth:int ->
  ?oracles:Jury_check.Oracle.t list ->
  Jury_check.Case.t -> report
(** Enumerate the case's schedules depth-first. [prune] (default
    [true]) applies the independence rule above; [~prune:false] is the
    naive enumeration, useful only to measure the pruning ratio.
    [max_schedules] (default 1000) bounds executions; [max_depth]
    (default unbounded) stops {e branching} past that many choice
    points (deeper ties take the default order). [oracles] (default
    {!Jury_check.Registry.all}) is the per-schedule battery; [[]]
    checks schedule-blindness only. *)

val chooser :
  ?record:(int -> Jury_sim.Engine.candidate array -> unit) ->
  Trace.t -> Jury_sim.Engine.chooser
(** The chooser a trace denotes: choice point [d] takes the trace's
    [d]-th entry (beyond-trace and out-of-range choices fall back to
    [0], the FIFO default). [record] observes every choice point's
    candidate set — the hook exploration's branching is built on. The
    returned chooser carries its own position counter: make a fresh one
    per run. *)

val explore_with :
  ?prune:bool -> ?max_schedules:int -> ?max_depth:int ->
  run:((int -> Jury_sim.Engine.candidate array -> unit) -> Trace.t -> 'a) ->
  check:('a -> Trace.t -> 'a -> divergence option) ->
  unit -> 'a * stats * divergence list
(** The exploration core behind {!explore}, generic over how a trace is
    executed: [run record trace] must re-execute the system under the
    trace's schedule (deterministically — equal traces must give equal
    outcomes) and report every choice point to [record];
    [check reference trace outcome] judges one schedule against the
    first one run (the FIFO reference, which is also the ['a] returned).
    Exposed so the pruning arithmetic can be exercised on synthetic
    engines; {!explore} is this applied to {!Jury_check.Run.execute}. *)

val executor : Trace.t -> Jury_check.Oracle.executor
(** An executor replaying the trace: every call runs
    [Run.execute ~deterministic:true] with a fresh chooser following
    the trace (choices beyond the trace, or out of range for the
    candidate set actually encountered — possible when an oracle
    overrides an axis and the event structure shifts — fall back
    to [0]). Safe to call from worker domains. *)

val replay :
  ?oracles:Jury_check.Oracle.t list ->
  Jury_check.Case.t -> Trace.t -> Jury_check.Run.outcome * divergence option
(** Re-run one schedule and re-check it: the outcome, plus [Some
    divergence] if it disagrees with the FIFO reference
    (schedule-blind) or fails the battery ([oracles] as in
    {!explore}; default [[]]). *)

val describe_divergence : divergence -> string
(** One-line human-readable summary (trace plus first difference or
    failing oracles), for reports and the CLI. *)

val mc_oracle :
  ?prune:bool -> ?max_schedules:int -> ?max_depth:int ->
  ?oracles:Jury_check.Oracle.t list ->
  unit -> Jury_check.Oracle.t
(** The whole exploration packaged as a single oracle
    ([mc/schedule-independence]) so it can ride the existing harness —
    in particular {!Jury_check.Shrink.minimise}. Defaults are sized for
    shrinking loops: [max_schedules = 64], inner [oracles = \[\]]
    (schedule-blindness only). *)

type minimised = {
  min_case : Jury_check.Case.t;   (** smallest case still diverging *)
  min_trace : Trace.t;            (** smallest diverging trace on it *)
  min_diff : string option;
  min_failures : (Jury_check.Oracle.t * string) list;
  min_steps : int;                (** case candidates executed *)
  min_shrunk : int;               (** accepted case reductions *)
}

val minimise :
  ?max_steps:int -> ?max_schedules:int -> ?max_depth:int ->
  ?oracles:Jury_check.Oracle.t list ->
  Jury_check.Case.t -> (minimised, string) result
(** Shrink a diverging case to a minimal counterexample:
    {!Jury_check.Shrink.minimise} over the case axes with {!mc_oracle}
    as the watched oracle, then greedy reduction of the diverging trace
    (drop trailing choice points, lower each choice toward [0]) while
    the divergence persists. [Error] if the case exhibits no divergence
    in the first place. [max_steps] (default 60) bounds case
    candidates; each candidate costs a bounded exploration
    ([max_schedules], default 64). *)

val demo_case :
  ?seed:int -> ?switches:int -> ?triggers:int -> ?nodes:int -> unit ->
  Jury_check.Case.t
(** The small benign deployment the CLI and CI explore: [switches]
    (1–3, default 2) switches in a line with one host each, [nodes]
    (2–5, default 3) controllers with [k = min 2 (nodes-1)]
    replication, an ONOS profile, zero-loss channels, no faults, and a
    host-join workload sized to about [triggers] (1–5, default 3)
    triggers. Raises [Invalid_argument] outside the small-scope
    bounds — exhaustive enumeration is only meaningful (and
    affordable) there. *)
