(* Pinned schedule-exploration repros.

   Each entry is a (case, choice trace) pair once produced by
   `jury_cli mc --minimise` against a buggy validator: on that tree the
   traced schedule's schedule-blind projection diverged from the FIFO
   reference.  On the current tree replaying the trace must agree with
   the reference and keep the full oracle battery green.  To append
   one, paste the case literal and trace `mc --minimise` prints and
   name the bug it caught.

   The seed entry comes from the explorer's mutation-sensitivity demo
   (see mc_last_responder.patch in this directory): the validator's
   `finish` was changed to attribute the verdict to
   `List.hd p.responses` — but that list is newest-first, so the alarm
   blamed the LAST responder, which depends on the arrival order of
   simultaneously-delivered quorum responses.  200 sampled fuzz cases
   stayed green (every sampled schedule used the same FIFO tie-break),
   while `jury_cli mc --switches 1 --triggers 1 --nodes 3` caught it
   in under a hundred schedules and minimised the witness to the
   8-choice trace below. *)

type entry =
  { name : string;
    bug : string;
    trace : string;
    case : Jury_check.Case.t }

let entries : entry list ref = ref []

let add ~name ~bug ~trace case = entries := { name; bug; trace; case } :: !entries

let all () = List.rev !entries

let () =
  add ~name:"mc-last-responder" ~bug:"verdict attributed to last responder"
    ~trace:"0.0.1.0.0.0.0.1"
    { Jury_check.Case.case_seed = 11;
      topo = Jury_check.Case.Linear;
      switches = 1;
      hosts_per_switch = 1;
      nodes = 3;
      k = 2;
      odl = false;
      workload = Jury_check.Case.Joins;
      rate = 25.0;
      duration_ms = 40;
      faults = [];
      drop = 0.0;
      duplicate = 0.0;
      jitter_us = 0.0;
      retries = 0;
      degraded_quorum = None;
      max_inflight = None;
      batch_us = None;
      triggers = 1 }
