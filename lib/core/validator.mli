(** The out-of-band validator — Algorithm 1 of the paper.

    Receives the response stream from every JURY controller module and
    replicator, groups responses by trigger taint τ, and decides each
    trigger's verdict when its response set is complete or its
    validation timer θτ expires:

    + {b CONSENSUS}: the primary's planned response must match the
      majority of replicated executions among secondaries whose state
      snapshot equals the primary's (state-aware consensus, §IV-C A).
      All-distinct responses are labelled non-deterministic and pass
      (§IV-C B).
    + {b SANITY_CHECK}: FLOWSDB cache updates and intercepted FLOW_MOD
      network writes must correspond one-to-one (T2 detection).
    + {b POLICY_CHECK}: the primary's response is evaluated against the
      administrator's policy rules (T3 detection).

    A missing primary response at timer expiry is a response-omission /
    timing fault attributed to the primary (§IV-C C). *)

module Types = Jury_controller.Types

type t

val create :
  ?master_lookup:(Jury_openflow.Of_types.Dpid.t -> int option) ->
  ?term_lookup:(unit -> int) ->
  ?ack_peers_of:(int -> int list) ->
  ?state_blind:bool ->
  Jury_sim.Engine.t -> Jury_config.t -> t
(** A fresh validator with all counters at zero; timers are scheduled
    on the given engine. The optional arguments wire it to a running
    cluster:
    - [master_lookup] gives the policy engine's local/remote
      destination attribute (default: no master known);
    - [term_lookup] gives the current leadership term, stamped into
      each pending trigger at registration and onto its alarm
      (default [fun () -> 0]);
    - [ack_peers_of] gives the static peers whose cache-event acks the
      validator expects for writes originating at a given node
      (default: none);
    - [state_blind] (default false) turns state-aware consensus off
      whatever the config says: standalone instances never share
      state, so their snapshots never match and the cross-instance
      response vote must carry the verdict. *)

val register_external :
  t -> taint:Types.Taint.t -> at:Jury_sim.Time.t -> primary:int ->
  secondaries:int list -> unit
(** The replicator announces an intercepted external trigger: which
    replica is primary and which secondaries received the replica. The
    validation timer starts here. *)

val reattribute :
  t -> taint:Types.Taint.t -> primary:int -> term:int -> bool
(** Mid-flight leadership change: the in-flight trigger's primary died
    and the replicator is re-driving the trigger at the new master.
    Moves the attribution to [primary], stamps [term] (carried onto
    the eventual alarm), and restarts the validation timer so the
    trigger is judged on the new master's responses instead of timing
    out against the dead one. Returns [false] (and does nothing) when
    the trigger is unknown or already decided. *)

val deliver : t -> Response.t -> unit
(** A response arrives on the out-of-band channel. *)

val deliver_batch : t -> Response.t list -> unit
(** Deliver a whole simulated tick's worth of responses in one call,
    in arrival order, bumping the batch counters once for a non-empty
    batch. [deliver_batch t [r]] and [deliver t r] drive identical
    verdict-state transitions. *)

val set_retransmit_handler : t -> (Types.Taint.t -> secondary:int -> unit) -> unit
(** Called once per straggling secondary per retry round when the
    config's [retransmit] is set; the deployment re-replicates the
    stored trigger over its (lossy) channel. Default: no-op. *)

val on_response : t -> (Response.t -> unit) -> unit
(** Append an observer invoked for every delivered response (metrics,
    tracing); observers never affect validation. *)

val on_verdict : t -> (Alarm.t -> unit) -> unit
(** Append an observer invoked for every verdict, faulty or not, at
    decision time ({!Alarm.is_fault} picks out the alarms). *)

(** {1 Results} *)

val verdicts : t -> Alarm.t list
(** All decided verdicts, oldest first. *)

val alarms : t -> Alarm.t list
(** Only the faulty ones. *)

val detection_times_ms : t -> float array
(** Detection time (trigger → decision) of every decided trigger, ms. *)

val decided_count : t -> int
(** Verdicts reached so far ([= List.length (verdicts t)]). *)

val total_decided : unit -> int
(** Process-wide decided-verdict count, summed over every validator on
    every domain (parallel experiment sweeps run one validator per pool
    task). The bench records per-experiment deltas of this in its
    [--json] output. *)

val fault_count : t -> int
(** Faulty verdicts ([= List.length (alarms t)]). *)

val pending_count : t -> int
(** Registered triggers not yet decided. *)

val unverifiable_count : t -> int
(** Verdicts decided [Ok_unverifiable] (identical-but-wrong k copies
    cannot be distinguished from correct ones). *)

val degraded_count : t -> int
(** Triggers decided [Ok_degraded] (reduced quorum). *)

val duplicate_count : t -> int
(** Responses discarded as stale channel duplicates. *)

val late_count : t -> int
(** Responses that arrived after their trigger was already decided. *)

val retransmit_count : t -> int
(** Retransmission requests issued (per secondary, per round). *)

val reattributed_count : t -> int
(** In-flight triggers whose attribution moved to a new master after a
    leadership change ({!reattribute}). *)

val straggler_count : t -> int
(** Secondary slots that never produced an execution response by
    decision time, summed over all decided triggers. *)

val overload_count : t -> int
(** Triggers force-expired with an {!Alarm.Overload} verdict at the
    [max_inflight] high-water mark. *)

val batch_count : t -> int
(** Non-empty batches ingested via {!deliver_batch}. *)

val batched_response_count : t -> int
(** Responses that arrived inside a {!deliver_batch} call. *)

val total_batches : unit -> int
(** Process-wide {!batch_count}, same contract as {!total_decided}. *)

val total_overloads : unit -> int
(** Process-wide {!overload_count}, same contract as
    {!total_decided}. *)

val current_epoch : t -> int
(** The registration epoch currently being filled. *)

val flush : t -> unit
(** Force-decide everything still pending (end of an experiment). *)

val current_timeout_value : t -> Jury_sim.Time.t
(** The θτ a trigger registered now would get (adaptive or fixed). *)

(** {1 Staged-pipeline plumbing}

    Used by {!Stage} to run validation on a replica validator owned by
    a consumer domain while this validator stays the facade the
    deployment and the experiment layer talk to. Not a general
    extension point: the hooks divert {!register_external},
    {!deliver}/{!deliver_batch} and {!flush} wholesale, and the stage
    merges replica state back with {!absorb_pipeline_replica} before
    any result accessor is read. *)

type pipeline_hooks = {
  pl_register :
    taint:Types.Taint.t -> at:Jury_sim.Time.t -> primary:int ->
    secondaries:int list -> unit;
  pl_batch : at:Jury_sim.Time.t -> Response.t list -> unit;
  pl_drain : at:Jury_sim.Time.t -> unit;
}

val set_pipeline_hooks : t -> pipeline_hooks -> unit
(** Divert ingestion into the hooks. While they are installed the
    verdict and response observers of this validator do {e not} fire
    (replica verdicts surface only through the merged result
    accessors) — the pipeline excludes the configurations that
    install any (retransmit, election).

    {!drain_pipeline} (or {!flush}, which starts with it) clears the
    hooks so the facade's own state, once merged, is read out through
    the normal accessors. *)

val pipeline_replica : t -> Jury_sim.Engine.t -> t
(** A fresh validator on [engine] with [t]'s configuration and wiring:
    the replica a {!Stage} consumer validates on. *)

val drain_pipeline : t -> unit
(** End-of-run barrier for a pipelined validator: stop the consumer
    via [pl_drain], which merges the replica back into this
    facade — decided verdicts, counters, and still-pending triggers
    alike, with {e no} forced decisions (the serial validator's state
    at the same instant). No-op when no hooks are installed, so
    callers may invoke it unconditionally before reading results. *)

val absorb_pipeline_replica : t -> t -> unit
(** [absorb_pipeline_replica t rep] folds replica [rep]'s verdict
    counters, registration count, epoch cursor, verdicts and pending
    (still undecided) triggers into [t]. Batch counters are not
    folded: the facade counts ticks as they arrive. Call once, after
    the replica's consumer has finished. *)
