open Jury_sim
module Types = Jury_controller.Types
module Values = Jury_controller.Values
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Of_message = Jury_openflow.Of_message
module Of_match = Jury_openflow.Of_match
module Of_action = Jury_openflow.Of_action
module Dpid = Jury_openflow.Of_types.Dpid
module Addr = Jury_packet.Addr

(* Process-wide verdict tally across every validator on every domain —
   the bench's per-experiment verdict counts come from deltas of this.
   Verdicts are orders of magnitude rarer than simulation events, so a
   shared atomic per decision is noise. *)
let global_decided = Atomic.make 0
let total_decided () = Atomic.get global_decided

(* Same contract for the ingestion counters: batches handed to
   [deliver_batch] and triggers force-expired at the [max_inflight]
   high-water mark. *)
let global_batches = Atomic.make 0
let total_batches () = Atomic.get global_batches
let global_overloads = Atomic.make 0
let total_overloads () = Atomic.get global_overloads

(* Floor of the adaptive validation timeout. *)
let min_timeout = Time.ms 10

(* One distinct cache event of a trigger, keyed by (origin, seq): its
   first report and every controller that reported it, the origin and
   its acking peers alike. *)
type cache_slot = { event : Event.t; mutable reporters : int list }

(* One distinct FLOW_MOD on the wire, keyed by (dpid, flow): its first
   sender and every controller that reported it. *)
type write_slot = {
  sender : int;
  dpid : Dpid.t;
  flow : Of_message.flow_mod;
  mutable senders : int list;
}

(* A trigger's response set is kept in typed slots, each in arrival
   order and filled once per response by [add]. *)
type pending = {
  taint : Types.Taint.t;
  trigger_at : Time.t;
  mutable primary : int option;
  mutable term : int;  (* leadership term; bumped when re-attributed *)
  secondaries : int list;
  mutable awaiting : int list;  (* [secondaries] with no execution yet *)
  mutable primary_execs : (int * (Response.t * Types.action list)) list;
      (* the first [`Primary] execution per controller *)
  mutable secondary_execs : (Response.t * Types.action list) list;
  mutable cache_events : cache_slot list;
  mutable net_writes : write_slot list;
  mutable failures : (int * Types.action * string) list;
      (* controller, refused write, reason *)
  mutable timer : Engine.handle option;
  mutable decided : bool;
  mutable retry_round : int;
  mutable retry_timer : Engine.handle option;
}

(* Hooks a staged-pipeline front end (Stage) installs on a validator:
   when set, registrations/deliveries/flushes are diverted to the
   stage's queue instead of touching this validator's own state, and
   the pipeline merges its replica back at [pl_drain]. *)
type pipeline_hooks = {
  pl_register :
    taint:Types.Taint.t -> at:Time.t -> primary:int ->
    secondaries:int list -> unit;
  pl_batch : at:Time.t -> Response.t list -> unit;
  pl_drain : at:Time.t -> unit;
}

type t = {
  engine : Engine.t;
  cfg : Jury_config.t;
  (* Runtime wiring, fixed at creation (see [create]). *)
  master_lookup : Dpid.t -> int option;
  term_lookup : unit -> int;
  ack_peers_of : int -> int list;
  state_aware : bool;
  pending : (string, pending) Hashtbl.t;
  epochs : (int, string list ref) Hashtbl.t;
      (* epoch -> keys registered in it, newest first. Decided keys stay
         as tombstones until the whole bucket retires — removal is a
         bulk drop of the bucket, not a per-key scan. *)
  flow_mirror : (string, Of_message.flow_mod) Hashtbl.t;
      (* validator-side FLOWSDB state, built from every cache update it
         has seen; lets the sanity check accept a re-sent FLOW_MOD whose
         cache entry predates this trigger. *)
  epoch_length : int;  (* registrations per epoch *)
  mutable reg_count : int;
  mutable epoch_now : int;
  mutable verdicts : Alarm.t list;  (* newest first *)
  mutable n_decided : int;
  mutable n_faults : int;
  mutable n_unverifiable : int;
  mutable n_degraded : int;
  mutable n_overloads : int;
  mutable n_duplicates : int;
  mutable n_late : int;
  mutable n_retransmits : int;
  mutable n_reattributed : int;
  mutable n_stragglers : int;
  mutable n_batches : int;
  mutable n_batch_responses : int;
  mutable response_observers : (Response.t -> unit) list;
      (* newest first; reversed at dispatch so observers run in
         registration order without quadratic appends *)
  mutable verdict_observers : (Alarm.t -> unit) list;
  mutable retransmit_handler : Types.Taint.t -> secondary:int -> unit;
  (* Adaptive validation timeout (the paper's SVIII-1 extension): track
     recent completion latencies RTO-style and size theta-tau as
     srtt + 4*rttvar, clamped to [min_timeout, timeout]. *)
  mutable srtt_ms : float;
  mutable rttvar_ms : float;
  mutable rtt_samples : int;
  mutable pipeline : pipeline_hooks option;
}

let create ?(master_lookup = fun _ -> None) ?(term_lookup = fun () -> 0)
    ?(ack_peers_of = fun _ -> []) ?(state_blind = false) engine
    (cfg : Jury_config.t) =
  { engine;
    cfg;
    master_lookup;
    term_lookup;
    ack_peers_of;
    state_aware = cfg.state_aware && not state_blind;
    pending = Hashtbl.create 256;
    epochs = Hashtbl.create 16;
    flow_mirror = Hashtbl.create 256;
    epoch_length =
      (* Small enough epochs that the high-water mark always has a few
         retired-candidate buckets behind the current one. *)
      (match cfg.max_inflight with
      | Some m -> max 1 (m / 4)
      | None -> 1024);
    reg_count = 0;
    epoch_now = 0;
    verdicts = [];
    n_decided = 0;
    n_faults = 0;
    n_unverifiable = 0;
    n_degraded = 0;
    n_overloads = 0;
    n_duplicates = 0;
    n_late = 0;
    n_retransmits = 0;
    n_reattributed = 0;
    n_stragglers = 0;
    n_batches = 0;
    n_batch_responses = 0;
    response_observers = [];
    verdict_observers = [];
    retransmit_handler = (fun _ ~secondary:_ -> ());
    srtt_ms = Time.to_float_ms cfg.timeout /. 4.;
    rttvar_ms = Time.to_float_ms cfg.timeout /. 8.;
    rtt_samples = 0;
    pipeline = None }

let current_timeout t =
  if t.cfg.adaptive_timeout && t.rtt_samples >= 20 then begin
    (* Wider than TCP's classic 4x: completion latencies are heavy-
       tailed (lognormal), so the estimator keeps extra headroom. *)
    let rto = t.srtt_ms +. (8. *. t.rttvar_ms) in
    Time.max min_timeout
      (Time.min t.cfg.timeout (Time.of_float_ms rto))
  end
  else t.cfg.timeout

let observe_completion_latency t latency =
  let ms = Time.to_float_ms latency in
  if t.rtt_samples = 0 then begin
    t.srtt_ms <- ms;
    t.rttvar_ms <- ms /. 2.
  end
  else begin
    t.rttvar_ms <- (0.75 *. t.rttvar_ms) +. (0.25 *. abs_float (t.srtt_ms -. ms));
    t.srtt_ms <- (0.875 *. t.srtt_ms) +. (0.125 *. ms)
  end;
  t.rtt_samples <- t.rtt_samples + 1

let set_retransmit_handler t f = t.retransmit_handler <- f
let on_response t f = t.response_observers <- f :: t.response_observers
let on_verdict t f = t.verdict_observers <- f :: t.verdict_observers

(* --- FLOW_MOD identity as the wire sees it --- *)

(* Whether [Of_wire] encodes [a] and [b] to the same bytes, decided on
   the structure without encoding either: integers compare in their
   field's width, and an absent field compares as the value the encoder
   writes for it ([out_port] [None] as [Port.none], no buffer as
   0xffffffff, an untagged VLAN as 0xffff, no prefix as 0.0.0.0/0).
   Prefix lengths are taken to lie in 0..32. *)
let same_on_wire =
  let bits n x y = (x lxor y) land ((1 lsl n) - 1) = 0 in
  let opt eq a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> eq x y
    | _ -> false
  in
  let mac x y = bits 48 (Addr.Mac.to_int x) (Addr.Mac.to_int y) in
  let ip x y = bits 32 (Addr.Ipv4.to_int x) (Addr.Ipv4.to_int y) in
  let vid = function None -> 0xffff | Some v -> v in
  let prefix a b =
    let len = function None -> 0 | Some (_, n) -> n in
    let addr = function None -> 0 | Some (p, _) -> Addr.Ipv4.to_int p in
    len a = len b && bits 32 (addr a) (addr b)
  in
  let match_ (a : Of_match.t) (b : Of_match.t) =
    opt (bits 16) a.in_port b.in_port
    && opt mac a.dl_src b.dl_src
    && opt mac a.dl_dst b.dl_dst
    && opt (fun x y -> bits 16 (vid x) (vid y)) a.dl_vlan b.dl_vlan
    && opt (bits 16) a.dl_type b.dl_type
    && opt (bits 8) a.nw_tos b.nw_tos
    && opt (bits 8) a.nw_proto b.nw_proto
    && prefix a.nw_src b.nw_src
    && prefix a.nw_dst b.nw_dst
    && opt (bits 16) a.tp_src b.tp_src
    && opt (bits 16) a.tp_dst b.tp_dst
  in
  let action (x : Of_action.t) (y : Of_action.t) =
    match (x, y) with
    | Output p, Output q
    | Set_vlan p, Set_vlan q
    | Set_tp_src p, Set_tp_src q
    | Set_tp_dst p, Set_tp_dst q ->
        bits 16 p q
    | Set_dl_src m, Set_dl_src n | Set_dl_dst m, Set_dl_dst n -> mac m n
    | Set_nw_src i, Set_nw_src j | Set_nw_dst i, Set_nw_dst j -> ip i j
    | Strip_vlan, Strip_vlan -> true
    | Enqueue (p, q), Enqueue (p', q') -> bits 16 p p' && bits 32 q q'
    | _ -> false
  in
  let buffer = Option.value ~default:0xFFFF_FFFF in
  let out_port = Option.value ~default:Jury_openflow.Of_types.Port.none in
  fun (a : Of_message.flow_mod) (b : Of_message.flow_mod) ->
    a.command = b.command
    && Int64.equal a.cookie b.cookie
    && bits 16 a.idle_timeout b.idle_timeout
    && bits 16 a.hard_timeout b.hard_timeout
    && bits 16 a.priority b.priority
    && bits 32 (buffer a.fm_buffer_id) (buffer b.fm_buffer_id)
    && bits 16 (out_port a.out_port) (out_port b.out_port)
    && match_ a.fm_match b.fm_match
    && List.compare_lengths a.actions b.actions = 0
    && List.for_all2 action a.actions b.actions

(* --- Folding a response into its trigger --- *)

(* Record [r] in its slot, or return [false] if it is a stale channel
   duplicate: a controller's second execution in the same role, or a
   report it already made. The first delivery wins, so a duplicate can
   never satisfy consensus or a quorum twice. Cache events are one slot
   per (origin, seq) and wire writes one per (dpid, FLOW_MOD as the
   wire sees it); a repeat from another controller joins the slot. *)
let add p (r : Response.t) =
  let c = r.controller in
  match r.body with
  | Response.Execution { role = `Primary; actions } ->
      if List.mem_assoc c p.primary_execs then false
      else begin
        p.primary_execs <- p.primary_execs @ [ (c, (r, actions)) ];
        true
      end
  | Response.Execution { role = `Secondary; actions } ->
      if
        List.exists
          (fun ((q : Response.t), _) -> q.controller = c)
          p.secondary_execs
      then false
      else begin
        p.secondary_execs <- p.secondary_execs @ [ (r, actions) ];
        p.awaiting <- List.filter (fun s -> s <> c) p.awaiting;
        true
      end
  | Response.Cache_update ev -> (
      match
        List.find_opt
          (fun s ->
            s.event.Event.origin = ev.Event.origin
            && s.event.Event.seq = ev.Event.seq)
          p.cache_events
      with
      | Some s when List.mem c s.reporters -> false
      | Some s ->
          s.reporters <- c :: s.reporters;
          true
      | None ->
          p.cache_events <-
            p.cache_events @ [ { event = ev; reporters = [ c ] } ];
          true)
  | Response.Network_write { dpid; flow } -> (
      match
        List.find_opt
          (fun w -> Dpid.equal w.dpid dpid && same_on_wire w.flow flow)
          p.net_writes
      with
      | Some w when List.mem c w.senders -> false
      | Some w ->
          w.senders <- c :: w.senders;
          true
      | None ->
          p.net_writes <-
            p.net_writes @ [ { sender = c; dpid; flow; senders = [ c ] } ];
          true)
  | Response.Write_failure { action; reason } ->
      let f = (c, action, reason) in
      if List.mem f p.failures then false
      else begin
        p.failures <- p.failures @ [ f ];
        true
      end

(* The current primary's execution. Attribution can move after it
   arrived (see [reattribute]), so every controller's is kept. *)
let primary_exec p =
  match p.primary with
  | None -> None
  | Some id -> List.assoc_opt id p.primary_execs

(* The first distinct cache event externalising [origin]'s planned
   write of [key] to [cache]. *)
let event_for p ~origin cache key =
  let cache = Names.normalize cache in
  List.find_opt
    (fun { event = ev; _ } ->
      ev.Event.cache = cache && ev.Event.key = key && ev.Event.origin = origin)
    p.cache_events

(* Acks are counted per distinct peer: a duplicated delivery of the same
   peer's ack never reaches the slot twice. *)
let acks s =
  List.fold_left
    (fun n c -> if c <> s.event.Event.origin then n + 1 else n)
    0 s.reporters

(* --- Completeness: can we decide before the timer? --- *)

let flow_mod_sends actions =
  List.filter_map
    (fun (a : Types.action) ->
      match a with
      | Types.Network_send { dpid; payload = Of_message.Flow_mod fm } ->
          Some (dpid, fm)
      | _ -> None)
    actions

let cache_writes actions =
  List.filter_map
    (fun (a : Types.action) ->
      match a with
      | Types.Cache_write { cache; op; key; value } ->
          Some (cache, op, key, value)
      | Types.Network_send _ -> None)
    actions

let complete t p =
  match primary_exec p with
  | None -> false
  | Some (prim_r, actions) ->
      let primary = prim_r.Response.controller in
      List.length p.secondary_execs >= List.length p.secondaries
      && (let peers = List.length (t.ack_peers_of primary) in
          List.for_all
            (fun (cache, _, key, _) ->
              match event_for p ~origin:primary cache key with
              | None -> false
              | Some s -> acks s >= peers)
            (cache_writes actions))
      && List.for_all
           (fun (dpid, (fm : Of_message.flow_mod)) ->
             List.exists
               (fun w ->
                 Dpid.equal w.dpid dpid
                 && Of_match.equal w.flow.fm_match fm.fm_match
                 && w.flow.priority = fm.priority
                 && w.flow.command = fm.command)
               p.net_writes)
           (flow_mod_sends actions)

(* --- Consensus --- *)

type consensus_result =
  | Agrees of int  (* agreeing responses, primary included *)
  | Disagrees of int list  (* dissenting controllers *)
  | Non_deterministic
  | Unverifiable

let run_consensus t p (prim_r : Response.t) prim_actions =
  let secondaries = p.secondary_execs in
  if secondaries = [] then
    if p.secondaries = [] then Agrees 1 (* nothing was replicated *)
    else Unverifiable
  else begin
    let comparable =
      if t.state_aware then
        List.filter
          (fun ((r : Response.t), _) ->
            Snapshot.equal r.snapshot prim_r.Response.snapshot)
          secondaries
      else secondaries
    in
    match comparable with
    | [] -> Unverifiable
    | _ -> (
        let all =
          Consensus.fingerprints (prim_actions :: List.map snd comparable)
        in
        let prim_fp = List.hd all in
        let distinct = List.sort_uniq String.compare all in
        if
          t.cfg.nondet_rule
          && List.length all >= 3
          && List.length distinct = List.length all
        then Non_deterministic
        else
          match Consensus.majority all with
          | None -> Unverifiable
          | Some (winner, n) ->
              if 2 * n <= List.length all then Unverifiable
              else if String.equal winner prim_fp then begin
                (* Primary agrees; flag dissenting secondaries. *)
                let dissenters =
                  List.fold_right2
                    (fun ((r : Response.t), _) fp acc ->
                      if String.equal fp winner then acc
                      else r.controller :: acc)
                    comparable (List.tl all) []
                in
                if dissenters = [] then Agrees (1 + List.length comparable)
                else Disagrees dissenters
              end
              else
                Disagrees
                  (match p.primary with Some id -> [ id ] | None -> []))
  end

(* Best agreeing fingerprint among the secondary executions alone, for
   deciding a trigger whose primary response was lost in transit. Under
   state-aware consensus only replicas sharing a network view may form
   the quorum (§IV-C A still applies, just without the primary). *)
let secondary_quorum t p =
  match p.secondary_execs with
  | [] -> None
  | secs ->
      let groups =
        if t.state_aware then
          List.fold_left
            (fun acc ((r : Response.t), actions) ->
              let rec place = function
                | [] -> [ (r.Response.snapshot, [ (r, actions) ]) ]
                | (snap, members) :: rest ->
                    if Snapshot.equal snap r.Response.snapshot then
                      (snap, (r, actions) :: members) :: rest
                    else (snap, members) :: place rest
              in
              place acc)
            [] secs
          |> List.map snd
        else [ secs ]
      in
      List.fold_left
        (fun best members ->
          let lists = List.map snd members in
          let fps = Consensus.fingerprints lists in
          match Consensus.majority fps with
          | None -> best
          | Some (fp, n) -> (
              match best with
              | Some (_, bn) when bn >= n -> best
              | _ ->
                  let _, actions =
                    List.find
                      (fun (f, _) -> String.equal f fp)
                      (List.combine fps lists)
                  in
                  Some (actions, n)))
        None groups

(* --- Sanity check: cache vs network consistency for flow rules --- *)

let flows_equal (a : Of_message.flow_mod) (b : Of_message.flow_mod) =
  Of_match.equal a.fm_match b.fm_match
  && a.priority = b.priority
  && Of_action.equal_list a.actions b.actions
  && a.command = b.command

(* The (dpid, FLOW_MOD) a FLOWSDB write stores, if it parses. *)
let flowsdb_entry cache key value =
  if Names.normalize cache = Names.flowsdb then
    match (Values.Flow.dpid_of_key key, Values.Flow.parse value) with
    | Some dpid, Some fm -> Some (dpid, fm)
    | _ -> None
  else None

(* Whether the FLOWSDB mirror already holds exactly [nfm] on [dpid]. *)
let mirrored mirror dpid (nfm : Of_message.flow_mod) =
  match
    Hashtbl.find_opt mirror
      (Values.Flow.key dpid nfm.fm_match ~priority:nfm.priority)
  with
  | Some cfm -> flows_equal cfm nfm
  | None -> false

(* When [plan] is given (degraded-quorum mode, after a timeout on a
   lossy channel) an inconsistency that the primary's own execution plan
   accounts for is excused: the observation was lost in transit, the
   action was not invented. Excused entries are returned separately so
   the caller can either degrade the verdict or, if no quorum backs the
   plan, reinstate them as faults. *)
let run_sanity ~mirror ?plan p ~origin =
  let cache_flows =
    List.filter_map
      (fun { event = ev; _ } ->
        if
          ev.Event.origin = origin
          && (ev.Event.op = Event.Create || ev.Event.op = Event.Update)
        then flowsdb_entry ev.Event.cache ev.Event.key ev.Event.value
        else None)
      p.cache_events
  in
  let nets =
    List.filter
      (fun w ->
        w.flow.command = Of_message.Add || w.flow.command = Of_message.Modify
        || w.flow.command = Of_message.Modify_strict)
      p.net_writes
  in
  let planned_sends =
    match plan with Some actions -> flow_mod_sends actions | None -> []
  in
  let planned_cache_flows =
    match plan with
    | None -> []
    | Some actions ->
        List.filter_map
          (fun (cache, _, key, value) -> flowsdb_entry cache key value)
          (cache_writes actions)
  in
  let faults = ref [] in
  let excused = ref [] in
  let add f detail = faults := (f, detail) :: !faults in
  let excuse f detail = excused := (f, detail) :: !excused in
  List.iter
    (fun (dpid, cfm) ->
      let same_match =
        List.filter
          (fun w ->
            Dpid.equal w.dpid dpid
            && Of_match.equal w.flow.fm_match cfm.Of_message.fm_match
            && w.flow.priority = cfm.Of_message.priority)
          nets
      in
      match same_match with
      | [] ->
          let planned =
            List.exists
              (fun (d, (pfm : Of_message.flow_mod)) ->
                Dpid.equal d dpid && flows_equal pfm cfm)
              planned_sends
          in
          let report = if planned then excuse else add in
          report Alarm.Cache_without_network
            (Format.asprintf "no FLOW_MOD on wire for cache entry %a@%a"
               Of_match.pp cfm.Of_message.fm_match Dpid.pp dpid)
      | writes ->
          if not (List.exists (fun w -> flows_equal w.flow cfm) writes) then
            add Alarm.Cache_network_mismatch
              (Format.asprintf "cache and wire disagree for %a@%a"
                 Of_match.pp cfm.Of_message.fm_match Dpid.pp dpid))
    cache_flows;
  List.iter
    (fun { dpid; flow = nfm; _ } ->
      let in_trigger =
        List.exists
          (fun (d, cfm) ->
            Dpid.equal d dpid
            && Of_match.equal cfm.Of_message.fm_match nfm.fm_match
            && cfm.Of_message.priority = nfm.priority)
          cache_flows
      in
      let in_plan () =
        (* The primary's plan includes the backing cache write; only its
           externalised event was lost. *)
        List.exists
          (fun (d, (pfm : Of_message.flow_mod)) ->
            Dpid.equal d dpid && flows_equal pfm nfm)
          planned_cache_flows
      in
      (* A FLOW_MOD re-sent for a rule the store already holds (e.g. a
         reinstall after a switch-side timeout race) is consistent if it
         matches the mirrored entry. *)
      if not (in_trigger || mirrored mirror dpid nfm) then
        let report = if in_plan () then excuse else add in
        report Alarm.Network_without_cache
          (Format.asprintf "FLOW_MOD %a@%a has no cache backing" Of_match.pp
             nfm.fm_match Dpid.pp dpid))
    nets;
  (!faults, List.rev !excused)

(* --- Policy check --- *)

let run_policy t ~origin ~external_ actions =
  (* With no rules installed no query can match; skip building the
     query records entirely. Besides being a hot-path win, this keeps
     the policy-free validator from consulting [master_lookup] — which
     reads live cluster mastership — so pipeline replicas never touch
     main-domain state. *)
  if Jury_policy.Engine.rule_count t.cfg.policies = 0 then []
  else
  let queries =
    List.filter_map
      (fun (a : Types.action) ->
        match a with
        | Types.Cache_write { cache; op; key; value } ->
            let destination =
              if cache = Names.normalize Names.flowsdb then
                match Values.Flow.dpid_of_key key with
                | Some dpid ->
                    if t.master_lookup dpid = Some origin then `Local
                    else `Remote
                | None -> `Local
              else `Local
            in
            Some
              { Jury_policy.Ast.q_controller = origin;
                q_trigger = (if external_ then `External else `Internal);
                q_cache = Names.normalize cache;
                q_op = op;
                q_key = key;
                q_value = value;
                q_destination = destination }
        | Types.Network_send _ -> None)
      actions
  in
  (* Per-response hot path: consult the compiled decision structure
     (memoised per engine generation — compiled once at Jury_config
     time), not the interpreter's rule-list scan. *)
  Jury_policy.Compiled.check_all
    (Jury_policy.Engine.compiled t.cfg.policies)
    queries
  |> List.map (fun (r : Jury_policy.Ast.rule) ->
         (Alarm.Policy_violation r.Jury_policy.Ast.name,
          Format.asprintf "%a" Jury_policy.Ast.pp_rule r))

(* --- Decision --- *)

let finish t p (verdict : Alarm.verdict) ~suspects ~detail =
  p.decided <- true;
  (match p.timer with Some h -> Engine.cancel h | None -> ());
  (match p.retry_timer with Some h -> Engine.cancel h | None -> ());
  p.retry_timer <- None;
  let stragglers = p.awaiting in
  t.n_stragglers <- t.n_stragglers + List.length stragglers;
  Hashtbl.remove t.pending (Types.Taint.to_string p.taint);
  let alarm =
    { Alarm.taint = p.taint;
      trigger_at = p.trigger_at;
      decided_at = Engine.now t.engine;
      primary = p.primary;
      suspects = List.sort_uniq compare suspects;
      term = p.term;
      verdict;
      detail }
  in
  (let tr = Engine.trace t.engine in
   if Jury_obs.Trace.enabled tr then begin
     let taint = Types.Taint.to_string p.taint in
     let t_ns = Engine.now_ns t.engine in
     let attrs =
       [ ("verdict", Alarm.verdict_name verdict);
         ("detection_ms",
          Printf.sprintf "%.3f" (Time.to_float_ms (Alarm.detection_time alarm)));
         ("suspects",
          String.concat "," (List.map string_of_int alarm.Alarm.suspects)) ]
     in
     let attrs =
       if stragglers = [] then attrs
       else
         ("stragglers",
          String.concat "," (List.map string_of_int stragglers))
         :: attrs
     in
     let attrs =
       if p.term > 0 then ("term", string_of_int p.term) :: attrs else attrs
     in
     Jury_obs.Trace.point tr ~t_ns ~taint ~phase:Jury_obs.Trace.Verdict
       ?node:p.primary
       (if detail = "" then attrs else ("detail", detail) :: attrs);
     Jury_obs.Trace.close_root tr ~t_ns ~taint
       [ ("verdict", Alarm.verdict_name verdict) ]
   end);
  t.verdicts <- alarm :: t.verdicts;
  t.n_decided <- t.n_decided + 1;
  ignore (Atomic.fetch_and_add global_decided 1);
  (match verdict with
  | Alarm.Faulty _ -> t.n_faults <- t.n_faults + 1
  | Alarm.Ok_unverifiable -> t.n_unverifiable <- t.n_unverifiable + 1
  | Alarm.Ok_degraded -> t.n_degraded <- t.n_degraded + 1
  | Alarm.Overload ->
      t.n_overloads <- t.n_overloads + 1;
      ignore (Atomic.fetch_and_add global_overloads 1)
  | Alarm.Ok_valid | Alarm.Ok_non_deterministic -> ());
  List.iter (fun f -> f alarm) (List.rev t.verdict_observers)

let evaluate t p ~timed_out =
  if not p.decided then begin
    let external_ = Types.Taint.is_external p.taint in
    match primary_exec p with
    | None ->
        if timed_out then begin
          (* No execution record at all. If the trigger consists of
             intercepted FLOW_MODs with no cache backing, the sender
             bypassed its cache — a misbehaving controller (§II-A.3).
             Otherwise it is a plain response omission — unless enough
             equivalent-view replicated executions agree, in which case
             the lossy channel ate the primary's report and the trigger
             is decided with a reduced quorum. *)
          let stray =
            List.filter
              (fun w -> not (mirrored t.flow_mirror w.dpid w.flow))
              p.net_writes
          in
          if stray <> [] then
            finish t p
              (Alarm.Faulty [ Alarm.Network_without_cache ])
              ~suspects:(List.map (fun w -> w.sender) stray)
              ~detail:
                "FLOW_MOD on the wire with no cache backing and no response"
          else begin
            let quorum =
              match t.cfg.degraded_quorum with
              | Some q when external_ && p.failures = [] -> (
                  match secondary_quorum t p with
                  | Some (actions, n) when n >= q ->
                      let origin =
                        match p.primary with Some id -> id | None -> -1
                      in
                      if run_policy t ~origin ~external_ actions = [] then
                        Some n
                      else None
                  | _ -> None)
              | _ -> None
            in
            match quorum with
            | Some n ->
                finish t p Alarm.Ok_degraded ~suspects:[]
                  ~detail:
                    (Printf.sprintf
                       "primary response lost; %d equivalent-view replica \
                        response(s) agree"
                       n)
            | None ->
                finish t p
                  (Alarm.Faulty [ Alarm.Response_timeout ])
                  ~suspects:(Option.to_list p.primary)
                  ~detail:"no primary response before validation timeout"
          end
        end
        else () (* keep waiting *)
    | Some (prim_r, prim_actions) ->
        let origin = prim_r.Response.controller in
        let faults = ref [] in
        let suspects = ref [] in
        let details = ref [] in
        (* Omissions: observations the plan promises but the validator
           never saw. They stay separate from hard faults until we know
           whether a reduced quorum can vouch for the plan. *)
        let omissions = ref [] in
        (* Write failures are response omissions in the making: the
           controller planned a cache write the store refused. *)
        List.iter
          (fun (ctrl, _, reason) ->
            faults := Alarm.Response_timeout :: !faults;
            suspects := ctrl :: !suspects;
            details := ("cache write failed: " ^ reason) :: !details)
          p.failures;
        let degraded_mode =
          timed_out && external_ && t.cfg.degraded_quorum <> None
        in
        (* Timed-out evaluation with missing externalisation: the plan
           says a write should exist; did its cache event arrive? *)
        if timed_out && p.failures = [] then begin
          List.iter
            (fun (cache, _, key, _) ->
              if event_for p ~origin cache key = None then begin
                omissions :=
                  (Alarm.Response_timeout, origin) :: !omissions;
                details :=
                  Printf.sprintf "cache update %s/%s never observed"
                    cache key
                  :: !details
              end)
            (cache_writes prim_actions)
        end;
        (* CONSENSUS *)
        let nondet = ref false in
        let unverifiable = ref false in
        let agree_n = ref 0 in
        (if external_ then
           match run_consensus t p prim_r prim_actions with
           | Agrees n -> agree_n := n
           | Non_deterministic -> nondet := true
           | Unverifiable -> unverifiable := true
           | Disagrees dissenters ->
               faults := Alarm.Consensus_mismatch :: !faults;
               suspects := dissenters @ !suspects;
               details :=
                 Printf.sprintf "consensus dissent by [%s]"
                   (String.concat ","
                      (List.map string_of_int dissenters))
                 :: !details);
        (* SANITY — with the plan fallback only in degraded mode, so a
           zero-loss run takes exactly the seed's decision path. *)
        let sanity_faults, excused =
          if degraded_mode then
            run_sanity ~mirror:t.flow_mirror ~plan:prim_actions p ~origin
          else run_sanity ~mirror:t.flow_mirror p ~origin
        in
        List.iter
          (fun (f, d) ->
            faults := f :: !faults;
            suspects := origin :: !suspects;
            details := d :: !details)
          sanity_faults;
        List.iter
          (fun (_, d) ->
            omissions := (Alarm.Response_timeout, origin) :: !omissions;
            details := d :: !details)
          excused;
        (* POLICY *)
        List.iter
          (fun (f, d) ->
            faults := f :: !faults;
            suspects := origin :: !suspects;
            details := d :: !details)
          (run_policy t ~origin ~external_ prim_actions);
        (* Can a reduced quorum stand behind the plan? Only when no hard
           fault fired and the responses that did arrive all agree. *)
        let degraded_ok =
          degraded_mode && !faults = []
          && (not !nondet) && not !unverifiable
          &&
          match t.cfg.degraded_quorum with
          | Some q -> !agree_n >= q
          | None -> false
        in
        if not degraded_ok then
          List.iter
            (fun (f, ctrl) ->
              faults := f :: !faults;
              suspects := ctrl :: !suspects)
            (List.rev !omissions);
        let missing = p.awaiting in
        let detail = String.concat "; " (List.rev !details) in
        if !faults <> [] then
          finish t p
            (Alarm.Faulty (List.sort_uniq compare !faults))
            ~suspects:!suspects ~detail
        else if !nondet then
          finish t p Alarm.Ok_non_deterministic ~suspects:[] ~detail
        else if !unverifiable then
          finish t p Alarm.Ok_unverifiable ~suspects:[] ~detail
        else if degraded_ok && (!omissions <> [] || missing <> []) then
          finish t p Alarm.Ok_degraded ~suspects:[]
            ~detail:
              (let quorum_note =
                 Printf.sprintf
                   "decided with reduced quorum (%d agreeing, %d straggler(s))"
                   !agree_n (List.length missing)
               in
               if detail = "" then quorum_note
               else detail ^ "; " ^ quorum_note)
        else finish t p Alarm.Ok_valid ~suspects:[] ~detail
  end

(* A trigger-scoped event: decides/updates only this trigger's entry
   (the counters it bumps are commutative). The two per-validator
   couplings that break that — the adaptive-timeout estimator, which
   every decision feeds and every later timer reads, and the admission
   epochs of [max_inflight], where one verdict releases the next queued
   trigger — force the conservative opaque footprint instead. *)
let entry_footprint t (p : pending) =
  if t.cfg.adaptive_timeout || t.cfg.max_inflight <> None then
    Footprint.opaque
  else Footprint.touches [ Footprint.taint (Types.Taint.to_string p.taint) ]

let arm_timer t p =
  if p.timer = None then
    p.timer <-
      Some
        (Engine.schedule t.engine
           ~footprint:(entry_footprint t p)
           ~after:(current_timeout t)
           (fun () -> evaluate t p ~timed_out:true))

(* --- Bounded retransmission with exponential backoff --- *)

let retry_delay t (rt : Jury_config.retransmit) round =
  let theta = Time.to_float_ms (current_timeout t) in
  Time.of_float_ms (theta *. rt.fraction *. (rt.backoff ** float_of_int round))

let rec arm_retry t p rt =
  p.retry_timer <-
    Some
      (Engine.schedule t.engine
         ~after:(retry_delay t rt p.retry_round)
         (fun () -> fire_retry t p rt))

and fire_retry t p (rt : Jury_config.retransmit) =
  p.retry_timer <- None;
  if not p.decided then begin
    match p.awaiting with
    | [] -> () (* everyone answered; no more retries needed *)
    | missing ->
        List.iter
          (fun secondary ->
            t.n_retransmits <- t.n_retransmits + 1;
            t.retransmit_handler p.taint ~secondary)
          missing;
        p.retry_round <- p.retry_round + 1;
        if p.retry_round < rt.max_retries then arm_retry t p rt
  end

(* --- Epoch bookkeeping and the in-flight high-water mark --- *)

(* Bulk-free retired epochs: a bucket at least two epochs old whose keys
   are all decided (tombstones) is dropped wholesale; one with live
   stragglers is compacted down to them. *)
let retire_decided_epochs t =
  let stale =
    Hashtbl.fold
      (fun e keys acc -> if e <= t.epoch_now - 2 then (e, keys) :: acc else acc)
      t.epochs []
  in
  List.iter
    (fun (e, keys) ->
      let live = List.filter (Hashtbl.mem t.pending) !keys in
      if live = [] then Hashtbl.remove t.epochs e else keys := live)
    stale

let oldest_epoch t =
  Hashtbl.fold
    (fun e _ acc -> match acc with Some b when b <= e -> acc | _ -> Some e)
    t.epochs None

(* Force-decide every still-undecided trigger registered in epoch [e],
   oldest registration first, then drop the epoch's bucket. *)
let force_expire_epoch t e =
  match Hashtbl.find_opt t.epochs e with
  | None -> ()
  | Some keys ->
      let ks = List.rev !keys in
      Hashtbl.remove t.epochs e;
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.pending key with
          | Some p when not p.decided ->
              finish t p Alarm.Overload ~suspects:[]
                ~detail:
                  (Printf.sprintf
                     "epoch %d force-expired at max_inflight high-water mark"
                     e)
          | _ -> ())
        ks

(* Called before each registration. Expiring the oldest epoch first
   mirrors the paper's argument that a verdict delayed past several
   epochs of newer traffic has lost its diagnostic value anyway. *)
let enforce_inflight t =
  match t.cfg.max_inflight with
  | None -> ()
  | Some m ->
      let looping = ref true in
      while !looping && Hashtbl.length t.pending >= m do
        match oldest_epoch t with
        | Some e when e < t.epoch_now -> force_expire_epoch t e
        | _ -> looping := false (* never eat the epoch being filled *)
      done

let note_registration t key =
  enforce_inflight t;
  t.reg_count <- t.reg_count + 1;
  let epoch = t.reg_count / t.epoch_length in
  if epoch > t.epoch_now then begin
    t.epoch_now <- epoch;
    retire_decided_epochs t
  end;
  match Hashtbl.find_opt t.epochs epoch with
  | Some keys -> keys := key :: !keys
  | None -> Hashtbl.add t.epochs epoch (ref [ key ])

let new_pending ~taint ~trigger_at ~primary ~term ~secondaries =
  { taint;
    trigger_at;
    primary;
    term;
    secondaries;
    awaiting = secondaries;
    primary_execs = [];
    secondary_execs = [];
    cache_events = [];
    net_writes = [];
    failures = [];
    timer = None;
    decided = false;
    retry_round = 0;
    retry_timer = None }

let get_pending t taint =
  let key = Types.Taint.to_string taint in
  match Hashtbl.find_opt t.pending key with
  | Some p -> Some p
  | None ->
      if Types.Taint.is_external taint then None
        (* external triggers must be registered by the replicator; a
           stray tainted response after decision is dropped *)
      else begin
        note_registration t key;
        let p =
          new_pending ~taint ~trigger_at:(Engine.now t.engine) ~primary:None
            ~term:(t.term_lookup ()) ~secondaries:[]
        in
        Hashtbl.add t.pending key p;
        Some p
      end

let register_external t ~taint ~at ~primary ~secondaries =
  match t.pipeline with
  | Some h -> h.pl_register ~taint ~at ~primary ~secondaries
  | None ->
  let key = Types.Taint.to_string taint in
  if not (Hashtbl.mem t.pending key) then begin
    note_registration t key;
    let p =
      new_pending ~taint ~trigger_at:at ~primary:(Some primary)
        ~term:(t.term_lookup ()) ~secondaries
    in
    Hashtbl.add t.pending key p;
    arm_timer t p;
    match t.cfg.retransmit with
    | Some rt when rt.max_retries > 0 && secondaries <> [] ->
        arm_retry t p rt
    | _ -> ()
  end

(* Mid-flight leadership change: the trigger's primary crashed and a
   new master will re-execute it under a later term. Instead of letting
   the pending record time out and blame the old primary, move the
   attribution to the new primary, stamp the new term, and restart the
   validation clock — the replicator re-drives the trigger, so fresh
   responses are on their way. *)
let reattribute t ~taint ~primary ~term =
  let key = Types.Taint.to_string taint in
  match Hashtbl.find_opt t.pending key with
  | Some p when not p.decided ->
      p.primary <- Some primary;
      p.term <- term;
      (match p.timer with Some h -> Engine.cancel h | None -> ());
      p.timer <- None;
      arm_timer t p;
      t.n_reattributed <- t.n_reattributed + 1;
      (let tr = Engine.trace t.engine in
       if Jury_obs.Trace.enabled tr then
         Jury_obs.Trace.point tr ~t_ns:(Engine.now_ns t.engine) ~taint:key
           ~phase:Jury_obs.Trace.Validate ~node:primary
           [ ("event", "reattributed"); ("term", string_of_int term) ]);
      true
  | _ -> false

let update_flow_mirror t (r : Response.t) =
  match r.body with
  | Response.Cache_update ev when ev.Event.cache = Names.flowsdb -> (
      match ev.Event.op with
      | Event.Delete -> Hashtbl.remove t.flow_mirror ev.Event.key
      | Event.Create | Event.Update -> (
          match Values.Flow.parse ev.Event.value with
          | Some fm -> Hashtbl.replace t.flow_mirror ev.Event.key fm
          | None -> ()))
  | _ -> ()

let deliver_inline t (r : Response.t) =
  (let tr = Engine.trace t.engine in
   if Jury_obs.Trace.enabled tr then
     Jury_obs.Trace.point tr ~t_ns:(Engine.now_ns t.engine)
       ~taint:(Types.Taint.to_string r.taint)
       ~phase:Jury_obs.Trace.Validate ~node:r.controller
       [ ("body", Response.body_name r.body) ]);
  List.iter (fun f -> f r) (List.rev t.response_observers);
  update_flow_mirror t r;
  match get_pending t r.taint with
  | None -> t.n_late <- t.n_late + 1
  | Some p ->
      (* [finish] drops a decided trigger from the table: [p] is live. *)
      if not (add p r) then t.n_duplicates <- t.n_duplicates + 1
      else begin
        (if p.primary = None then
           match Types.Taint.primary_of r.taint with
           | Some id -> p.primary <- Some id
           | None -> (
               (* Internal trigger: the origin is the primary actor. *)
               match r.body with
               | Response.Cache_update ev -> p.primary <- Some ev.Event.origin
               | Response.Execution { role = `Primary; _ }
               | Response.Write_failure _ ->
                   p.primary <- Some r.controller
               | _ -> ()));
        arm_timer t p;
        if complete t p then begin
          observe_completion_latency t
            (Time.sub (Engine.now t.engine) p.trigger_at);
          evaluate t p ~timed_out:false
        end
      end

let deliver t (r : Response.t) =
  match t.pipeline with
  | Some h -> h.pl_batch ~at:(Engine.now t.engine) [ r ]
  | None -> deliver_inline t r

(* Batched ingestion: one call delivers a whole simulated tick's worth
   of responses in arrival order, so a per-event caller and a batching
   caller drive the state machine through the same transitions. The
   batch counters are bumped here, once per tick, whether the tick is
   validated inline or handed to the staged pipeline. *)
let deliver_batch t rs =
  if rs <> [] then begin
    let size = List.length rs in
    t.n_batches <- t.n_batches + 1;
    t.n_batch_responses <- t.n_batch_responses + size;
    ignore (Atomic.fetch_and_add global_batches 1);
    (let tr = Engine.trace t.engine in
     if Jury_obs.Trace.enabled tr then
       Jury_obs.Trace.global_point tr ~t_ns:(Engine.now_ns t.engine)
         ~phase:Jury_obs.Trace.Batch
         [ ("responses", string_of_int size) ]);
    match t.pipeline with
    | Some h -> h.pl_batch ~at:(Engine.now t.engine) rs
    | None -> List.iter (deliver_inline t) rs
  end

let verdicts t = List.rev t.verdicts
let alarms t = List.filter Alarm.is_fault (verdicts t)

let detection_times_ms t =
  verdicts t
  |> List.map (fun a -> Time.to_float_ms (Alarm.detection_time a))
  |> Array.of_list

let decided_count t = t.n_decided
let fault_count t = t.n_faults
let pending_count t = Hashtbl.length t.pending
let unverifiable_count t = t.n_unverifiable
let degraded_count t = t.n_degraded
let overload_count t = t.n_overloads
let duplicate_count t = t.n_duplicates
let late_count t = t.n_late
let retransmit_count t = t.n_retransmits
let reattributed_count t = t.n_reattributed
let straggler_count t = t.n_stragglers
let batch_count t = t.n_batches
let batched_response_count t = t.n_batch_responses
let current_epoch t = t.epoch_now

(* --- staged-pipeline plumbing (see Stage) --- *)

let set_pipeline_hooks t h = t.pipeline <- Some h

let pipeline_replica t engine =
  create ~master_lookup:t.master_lookup ~term_lookup:t.term_lookup
    ~ack_peers_of:t.ack_peers_of ~state_blind:(not t.state_aware) engine
    t.cfg

let drain_pipeline t =
  match t.pipeline with
  | Some h ->
      (* Detach first: the stage merges its replica back into [t] via
         {!absorb_pipeline_replica}, after which [t] answers result
         queries — and any further ingestion runs inline. *)
      t.pipeline <- None;
      h.pl_drain ~at:(Engine.now t.engine)
  | None -> ()

let flush t =
  drain_pipeline t;
  let ps = Hashtbl.fold (fun _ p acc -> p :: acc) t.pending [] in
  List.iter (fun p -> evaluate t p ~timed_out:true) ps

let current_timeout_value = current_timeout

let absorb_pipeline_replica t src =
  (* Undecided triggers migrate so a later facade [flush] (or plain
     [pending_count]) sees exactly what the serial validator would:
     the replica's timers are dead with its engine, but flush-forced
     evaluation only reads the pending record. Batch counters stay
     put: the facade bumped them as the ticks went by. *)
  Hashtbl.iter (Hashtbl.replace t.pending) src.pending;
  t.n_decided <- t.n_decided + src.n_decided;
  t.n_faults <- t.n_faults + src.n_faults;
  t.n_unverifiable <- t.n_unverifiable + src.n_unverifiable;
  t.n_degraded <- t.n_degraded + src.n_degraded;
  t.n_overloads <- t.n_overloads + src.n_overloads;
  t.n_duplicates <- t.n_duplicates + src.n_duplicates;
  t.n_late <- t.n_late + src.n_late;
  t.n_retransmits <- t.n_retransmits + src.n_retransmits;
  t.n_reattributed <- t.n_reattributed + src.n_reattributed;
  t.n_stragglers <- t.n_stragglers + src.n_stragglers;
  t.reg_count <- t.reg_count + src.reg_count;
  t.epoch_now <- src.epoch_now;
  t.verdicts <- src.verdicts @ t.verdicts
