(** JURY deployment: attach the replicator, per-node controller
    modules, and the out-of-band validator to a running cluster.

    Installing a deployment interposes on the cluster's southbound and
    northbound paths (the replicator, §IV-A), hooks every node's cache
    manager and network egress (the controller module, §VI-C), gives
    each node a shadow-execution pipeline for replicated triggers (the
    paper runs these on the controllers' spare cores, off the FLOW_MOD
    pipeline), and stands up the validator on an out-of-band link. *)

module Types = Jury_controller.Types
module Cluster = Jury_controller.Cluster

type t

val install : Cluster.t -> Jury_config.t -> t
(** Interpose on the cluster. Install before {!Cluster.start} so that
    bootstrap triggers are validated too, or after for workload-only
    validation.

    With [pipeline_jobs > 1] (and no trace sink on the engine) the
    validator runs as a staged pipeline ({!Stage}); read its results
    after {!Validator.drain_pipeline} (or {!Validator.flush}). A config
    with an [election] starts the cluster's master election
    ({!Cluster.enable_election}) and re-attributes the in-flight
    triggers of a crashed master to its successor
    ({!Validator.reattribute}). *)

val validator : t -> Validator.t
(** The deployment's validator — verdicts and counters are read here. *)

val cluster : t -> Cluster.t
(** The cluster being interposed on. *)

val cfg : t -> Jury_config.t
(** The configuration {!install} was given. *)

val rejoin_node : t -> node:int -> unit
(** Crash-and-rejoin recovery for a replica: clear its store partition,
    state-transfer its cache tables from the lowest-id healthy
    (alive, unpartitioned) peer via {!Jury_store.Fabric.resync},
    re-seed its node snapshot from that peer, invalidate its cached
    topology view, and mark it alive again in the cluster. Mastership
    is {e not} handed back — the node resumes as a secondary. Raises
    [Invalid_argument] when no healthy source exists. *)

(** {1 Overhead accounting} *)

val replication_bytes : t -> int
(** Bytes of replicated triggers sent to secondaries. *)

val validator_bytes : t -> int
(** Bytes of responses relayed to the validator. *)

val chatter_bytes : t -> int
(** Mastership-status chatter from secondaries to primaries. *)

val decap_samples_us : t -> float array
(** Per-replica decapsulation costs measured so far (Fig. 4i). *)

val replicated_trigger_count : t -> int
(** External triggers intercepted and replicated so far. *)

val reset_accounting : t -> unit
(** Zero the byte and trigger counters above (e.g. after warm-up). *)

(** {1 Channel health} *)

val channel_stats : t -> (string * Channel.stats) list
(** Per-link counters, replica links (["replica/i"]) first, then
    validator links (["validator/i"]). *)

val channel_totals : t -> Channel.stats
(** Sum over all links. *)
