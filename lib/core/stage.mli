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
    1024 items.

    Attach only validators whose configuration {!Jury_config.make}
    accepted with [pipeline_jobs > 1] (which excludes retransmit,
    adaptive timeout, inflight cap, policy rules and election), and
    never on a traced engine — see the implementation notes in
    [stage.ml] for why each exclusion is load-bearing. *)

val attach : pool:Jury_par.Pool.t -> Validator.t -> unit
(** [attach ~pool facade] installs pipeline hooks on [facade]. The
    replica is built from the facade's configuration and wiring
    ({!Validator.pipeline_replica}); the consumer runs as a
    {!Jury_par.Pool.async} task on [pool]. *)
