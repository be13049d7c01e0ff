(** Staged validation pipeline over the {!Jury_par.Pool} domain pool.

    [attach] turns a freshly created validator into a pipeline facade:
    capture/channel keeps running on the main simulation domain, but
    every registration and response tick becomes an item on a bounded
    SPSC ring ({!Jury_par.Spsc}), drained by one consumer domain into a
    replica validator. The replica replays the facade's simulated
    timestamps on a private engine, so validation timers fire at the
    same instants they would inline. {!Validator.drain_pipeline} on the
    facade (or {!Validator.flush}, which drains first) sends
    end-of-stream, joins the consumer and merges the replica back —
    verdicts, counters and still-pending triggers, with no forced
    decisions — after which the facade answers every result accessor
    with the serial validator's answers.

    The ring applies back-pressure: a full ring makes the producer (the
    simulation) spin until the consumer catches up, bounding memory by
    [queue_capacity] items.

    Only {!Deployment.install} should call this, and only behind its
    eligibility gate (no retransmit, adaptive timeout, inflight cap,
    policy rules, election or trace) — see the implementation notes in
    [stage.ml] for why each gate is load-bearing. *)

val attach :
  ?queue_capacity:int ->
  pool:Jury_par.Pool.t ->
  Validator.config ->
  Validator.t ->
  unit
(** [attach ~pool cfg facade] installs pipeline hooks on [facade],
    whose replica is built from [cfg] (the same validated config the
    facade was created with) and whose consumer runs as a
    {!Jury_par.Pool.async} task on [pool]. [queue_capacity] (default
    1024) is rounded up to a power of two. *)
