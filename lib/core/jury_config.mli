(** The one JURY configuration: the knobs the paper's validator is
    tuned by (replication factor k, validation timeout θτ, the
    consensus rules, the policy set) plus this reproduction's
    extensions (lossy channels, retransmission, degraded quorum, the
    bounded/batched/pipelined validator, dynamic election).

    The record is [private]: {!make} is its only constructor and
    validates every field, so {!Validator.create}, {!Stage.attach} and
    {!Deployment.install} can read it without re-checking. Runtime
    wiring that is not configuration (master and term lookups, the
    ack peer set) is passed to {!Validator.create} separately.

    [make ()] with no arguments reproduces the seed deployment (k = 2)
    byte-for-byte. *)

type retransmit = private {
  fraction : float;
      (** first retry fires after [fraction]·θτ; in (0, 1] *)
  backoff : float;  (** multiplier between retries; >= 1 *)
  max_retries : int;  (** retry cap per straggling secondary *)
}

type t = private {
  k : int;  (** replication factor *)
  timeout : Jury_sim.Time.t;
      (** validation timeout θτ (the maximum, when adaptive) *)
  adaptive_timeout : bool;
      (** size θτ from recent completion latencies, RTO-style — the
          §VIII-1 extension the paper leaves to future work *)
  state_aware : bool;
      (** restrict consensus to equal-snapshot replicas; [false] gives
          the naive-majority ablation *)
  nondet_rule : bool;  (** all-distinct ⇒ non-faulty; [false] for ablation *)
  random_secondaries : bool;
      (** sample k fresh secondaries per trigger (paper default) vs the
          primary's static peer set (ablation) *)
  deterministic_latencies : bool;
      (** pin the replication and response-collection links to their
          base latencies (no jitter draws) *)
  policies : Jury_policy.Engine.t;
  encapsulation : bool;  (** ODL-style OVS replication *)
  channel : Channel.profile;
      (** loss model applied to every replication and
          response-collection link; {!Channel.reliable} reproduces the
          seed bit-for-bit *)
  retransmit : retransmit option;
      (** re-replicate to straggling secondaries (bounded, with
          exponential backoff); [None] = no retransmission *)
  degraded_quorum : int option;
      (** when set, a timed-out external trigger whose arrived
          equivalent-view responses all agree — and number at least
          this quorum — is decided [Ok_degraded] instead of raising a
          response-timeout alarm; [None] = seed behaviour *)
  max_inflight : int option;
      (** high-water mark on in-flight (undecided) triggers; past it
          the oldest epoch is force-expired with {!Alarm.Overload}
          verdicts. [None] = unbounded (seed behaviour) *)
  batch_window : Jury_sim.Time.t option;
      (** when set, responses coming off the out-of-band links are
          accumulated for this long and handed to the validator as one
          batch; [None] = one {!Validator.deliver} per response *)
  pipeline_jobs : int;
      (** > 1 runs validation as a staged pipeline ({!Stage}) on one
          consumer domain; 1 = the serial (oracle) path *)
  election : Jury_controller.Cluster.election_config option;
      (** when set, {!Deployment.install} starts the cluster's
          deterministic master election and re-attributes in-flight
          triggers of a crashed master to its successor; [None] = no
          election timer, no listener *)
}

val make :
  ?k:int ->
  ?timeout:Jury_sim.Time.t ->
  ?adaptive_timeout:bool ->
  ?state_aware:bool ->
  ?nondet_rule:bool ->
  ?random_secondaries:bool ->
  ?policies:Jury_policy.Engine.t ->
  ?encapsulation:bool ->
  ?drop:float ->
  ?duplicate:float ->
  ?jitter_us:float ->
  ?retransmit:retransmit ->
  ?degraded_quorum:int ->
  ?max_inflight:int ->
  ?batch:Jury_sim.Time.t ->
  ?deterministic_latencies:bool ->
  ?pipeline_jobs:int ->
  ?election:Jury_controller.Cluster.election_config ->
  unit -> t
(** Defaults match the seed: k 2, timeout 150 ms (800 ms when
    [encapsulation]), fixed timeout, state-aware consensus and the
    non-determinism rule on, random secondaries, no policies, reliable
    channel, no retransmission, no degraded quorum, unbounded
    in-flight state, per-event ingestion, no election.

    The channel is given by [?drop]/[?duplicate]/[?jitter_us]
    (validated through {!Channel.lossy}; all zero is {!Channel.reliable}).
    Raises [Invalid_argument] on any out-of-range value: negative [k],
    [degraded_quorum < 1], [max_inflight < 1], a non-positive [batch]
    window, [pipeline_jobs < 1], or an [election] with a non-positive
    period or [timeout_beats < 1].

    A [?policies] rule set is compiled here, once, into the
    {!Jury_policy.Compiled} decision structure the validator consults
    per response (memoised on the engine; see
    {!Jury_policy.Engine.compiled}).

    [deterministic_latencies] (default false) pins the replication and
    response-collection links to their base latencies — their jitter
    RNGs are never drawn — and forces [random_secondaries:false], so
    the replicator consumes no randomness at all. Pair it with
    {!Jury_controller.Profile.deterministic} to make a whole deployment
    jitter-free; the [Jury_mc] schedule explorer requires such a
    configuration (see DESIGN.md).

    [pipeline_jobs] (default 1) > 1 runs validation as a staged
    pipeline over the domain pool (see {!Stage} and DESIGN.md
    "Staged validation pipeline"): raises [Invalid_argument] when
    combined with [retransmit], [adaptive_timeout], [max_inflight],
    [election] or a non-empty [policies] set; defaults [batch] to
    200 µs when unset and requires it below the timeout.
    [pipeline_jobs:1] is the serial oracle path, byte-identical to the
    seed. *)

val retransmit :
  ?fraction:float -> ?backoff:float -> ?max_retries:int -> unit -> retransmit
(** Validated retransmission policy (defaults: first retry at 0.4·θτ,
    backoff 2.0, 2 rounds). *)
