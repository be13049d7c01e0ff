(** Firehose throughput sweep: sustained events/sec and verdicts/sec of
    the validation path — serial and staged over the domain pool —
    under a {!Jury_workload.Firehose} stream.

    Each point builds a bare validator from the same configuration the
    deployment would use (200 µs batch window, 50 ms timeout), attaches
    the {!Jury.Stage} pipeline when [jobs > 1], replays the same
    deterministic arrival stream, and measures wall-clock around the
    simulation run plus final flush. Points run {e sequentially}: a
    pipelined point owns the machine's cores, so fanning points out
    would corrupt the wall-clock figures.

    The job count must not be observable in the verdicts:
    [fh_triggers], [fh_responses], [fh_decided] and [fh_faults] are
    equal across every point of a profile (the CLI's bench prints a
    MISMATCH marker if not). *)

type row = {
  fh_profile : string;
  fh_jobs : int;             (** intra-run pipeline jobs; 1 = serial, >1 = staged *)
  fh_triggers : int;         (** arrivals registered *)
  fh_responses : int;        (** responses ingested (98% response rate) *)
  fh_decided : int;
  fh_faults : int;
  fh_wall_s : float;
  fh_events_per_s : float;   (** (triggers + responses) / wall *)
  fh_verdicts_per_s : float; (** decided / wall *)
  fh_domains_spawned : int;
      (** new domains spawned during the point — 0 once the pool's
          persistent workers exist (see {!Jury_par.Pool}) *)
}

val run_point :
  ?seed:int -> ?nodes:int -> ?k:int ->
  profile:Jury_workload.Firehose.profile ->
  duration:Jury_sim.Time.t -> jobs:int -> unit -> row
(** One job-count measurement. [duration] is simulated stream
    time (default sweep uses 400 ms); [nodes] (default 5) and [k]
    (default 2) shape the responder set. *)

val default_points : int list
(** Pipeline job counts: [[1; 2]] — serial, then staged. *)

val sweep :
  ?seed:int -> ?duration:Jury_sim.Time.t ->
  ?profile:Jury_workload.Firehose.profile ->
  ?points:int list -> unit -> row list
(** The rows of {!default_points} (or [points]), in order. *)
