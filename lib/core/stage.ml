(* Staged validation pipeline: capture/channel stays on the main
   domain (it owns the simulation engine), validation runs on one
   replica validator owned by a consumer domain, connected by one
   bounded SPSC ring.

   The facade validator the deployment created keeps receiving
   registrations and deliveries, but with hooks installed they are
   turned into queue items instead of touching its state. The items
   drain, in push order, into the replica, driven by a private engine
   whose clock replays the facade engine's timestamps — so timers fire
   at the same simulated instants they would inline, and the replica
   walks the exact state machine the serial validator would have
   walked, FLOWSDB flow mirror included. At flush the producer sends
   end-of-stream, joins the consumer and merges the replica back into
   the facade, which from then on answers result queries as if it had
   done the work itself.

   Correctness leans on the feature exclusions in {!Jury_config.make}
   (no retransmissions, no adaptive timeout, no inflight cap, no policy
   rules, no election) and on {!Deployment.install} keeping traced runs
   serial. Under those gates the replica never calls back into
   main-domain state (the policy engine's [master_lookup] is the one
   cross-domain read, and the validator's policy check skips it when
   no rules are installed) and never feeds anything back into the
   channel. *)

open Jury_sim
module Pool = Jury_par.Pool
module Spsc = Jury_par.Spsc
module Types = Jury_controller.Types

type item =
  | Register of {
      taint : Types.Taint.t;
      at : Time.t;
      primary : int;
      secondaries : int list;
    }
  | Tick of { at : Time.t; responses : Response.t list }
      (* one simulated tick's responses, in arrival order *)
  | Eos of Time.t
      (* advance to drain time and stop — no forced decisions; the
         facade's own [flush] force-decides after the merge if asked *)

(* Advance a replica engine to simulated time [at], firing every timer
   due on the way. [Engine.run ~until] does not move the clock past
   the last event when the queue drains, so pin the target time with a
   no-op event: it carries the highest sequence number at [at], hence
   runs after every timer due at exactly [at] — the same order the
   facade engine gives timers relative to the batch-flush callback
   (armed a full θτ earlier, the timers always hold lower sequence
   numbers). *)
let advance engine ~at =
  if Time.compare at (Engine.now engine) > 0 then begin
    ignore (Engine.schedule_at engine ~at (fun () -> ()));
    Engine.run engine ~until:at
  end

let apply engine replica = function
  | Register { taint; at; primary; secondaries } ->
      advance engine ~at;
      Validator.register_external replica ~taint ~at ~primary ~secondaries
  | Tick { at; responses } ->
      advance engine ~at;
      List.iter (Validator.deliver replica) responses
  | Eos at ->
      (* Timers due by the drain instant fire (deciding their triggers
         exactly as the facade engine would have); everything still
         pending stays pending and migrates back in the merge. *)
      advance engine ~at

(* The main domain is the ring's only producer and this its only
   consumer. [Spsc.pop] returns [None] once the ring is closed and
   drained, which follows the [Eos] item. *)
let consume engine replica queue () =
  let rec loop () =
    match Spsc.pop queue with
    | None -> ()
    | Some item ->
        apply engine replica item;
        loop ()
  in
  loop ()

let attach ~pool facade =
  let queue = Spsc.create ~capacity:1024 in
  (* The replica engine replays facade timestamps; it draws no
     randomness (the validator is RNG-free), so the seed is
     irrelevant. *)
  let engine = Engine.create () in
  let replica = Validator.pipeline_replica facade engine in
  let ticket = Pool.async pool (consume engine replica queue) in
  let pl_register ~taint ~at ~primary ~secondaries =
    Spsc.push queue (Register { taint; at; primary; secondaries })
  in
  let pl_batch ~at responses = Spsc.push queue (Tick { at; responses }) in
  let pl_drain ~at =
    Spsc.push queue (Eos at);
    Spsc.close queue;
    Pool.await ticket;
    Validator.absorb_pipeline_replica facade replica
  in
  Validator.set_pipeline_hooks facade { pl_register; pl_batch; pl_drain }
