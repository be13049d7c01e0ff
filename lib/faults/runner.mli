(** Drives a fault scenario end-to-end: builds a JURY-enhanced cluster,
    arms the fault, provokes it, and reports whether JURY raised the
    expected alarm against the faulty replica. This is the machinery
    behind the §VII-A1 detection experiments, the `detection` bench and
    the fault test-suite. *)

type report = {
  scenario : Scenarios.t;
  detected : bool;
      (** an expected alarm fired with the faulty replica among the
          suspects *)
  detection_time_ms : float option;  (** of the first matching alarm *)
  matching_alarms : Jury.Alarm.t list;
  other_alarms : Jury.Alarm.t list;
  verdict_count : int;
}

type env = {
  cluster : Jury_controller.Cluster.t;
  network : Jury_net.Network.t;
  deployment : Jury.Deployment.t;
  faulty : int;
}

val run :
  ?seed:int -> ?nodes:int -> ?k:int -> ?faulty:int ->
  ?extra_slow:int list ->
  ?switches:int -> ?random_secondaries:bool ->
  ?trace:Jury_obs.Trace.t ->
  ?max_inflight:int -> ?batch:Jury_sim.Time.t ->
  ?pipeline_jobs:int ->
  Scenarios.t -> report
(** Defaults match the paper's worst case: 7 nodes, full replication
    (k = 6), faulty replica 2, a linear 24-switch topology. [extra_slow]
    marks additional replicas as timing-faulty (the m = 2 setting).
    [trace], when given, is attached to the engine before anything is
    scheduled, so it observes the full run. [max_inflight], [batch]
    and [pipeline_jobs] pass through to {!Jury.Jury_config.make} via
    {!Scenarios.jury_config}. *)

val run_matrix :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?repeats:int -> ?seed_stride:int ->
  ?nodes:int -> ?k:int -> ?faulty:int -> ?extra_slow:int list ->
  ?switches:int -> ?random_secondaries:bool ->
  Scenarios.t list -> (Scenarios.t * report list) list
(** [run_matrix scenarios] runs every scenario [repeats] times (default
    1), repeat [i] seeded [seed + i * seed_stride] (stride default 13,
    matching the detection-matrix convention), fanning the
    (scenario, repeat) cells out on [pool] (default
    {!Jury_par.Pool.default}). Each cell builds its own engine inside
    its task, so results are byte-identical whatever the worker count.
    Reports come back grouped per scenario, repeats in order. Raises
    [Invalid_argument] before running anything unless
    [1 <= faulty < nodes]: no cluster shape outside that range can run
    the catalog. *)

val run_env :
  ?seed:int -> ?nodes:int -> ?k:int -> ?faulty:int ->
  ?extra_slow:int list -> ?switches:int -> ?random_secondaries:bool ->
  ?trace:Jury_obs.Trace.t ->
  ?max_inflight:int -> ?batch:Jury_sim.Time.t ->
  ?pipeline_jobs:int ->
  Scenarios.t -> report * env
(** Like {!run} but also returns the live environment for inspection. *)

val pp_report : Format.formatter -> report -> unit
