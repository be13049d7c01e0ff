open Jury_sim

type entry = {
  rule : Of_match.t;
  priority : int;
  cookie : Of_types.cookie;
  actions : Of_action.t list;
  idle_timeout : int;
  hard_timeout : int;
  installed_at : Time.t;
  mutable last_hit : Time.t;
  mutable packet_count : int64;
  mutable byte_count : int64;
  mutable marked : bool;
}

(* --- Exact-match index key ---

   The index key is a fingerprint of the nine lookup-relevant fields
   (in_port, dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto, tp_src,
   tp_dst; -1 encodes "wildcarded nw/tp field"), mixed into two words
   instead of the previous [Printf.sprintf]-built string — the string
   cost one allocation per lookup *and* per insert on the per-packet
   hot path. The packing is lossy (238 bits of fields into 126), which
   is sound here: a key only selects a bucket, and every bucket
   operation re-verifies candidates against the actual [Of_match.t]
   ([matches] / [same_slot]), so a collision can never return a wrong
   entry — equal matches always produce equal keys, and unequal matches
   sharing a key merely share a bucket. *)

type key = { ka : int; kb : int }

(* Two rounds of xor-multiply-shift per field, with distinct odd
   constants per lane (both fit in 63-bit ints). *)
let[@inline] mix_a h v =
  let h = (h lxor v) * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let[@inline] mix_b h v =
  let h = (h lxor v) * 0xBF58476D1CE4E5B in
  h lxor (h lsr 31)

let[@inline] key_of_fields ~in_port ~src ~dst ~ty ~ns ~nd ~proto ~tps ~tpd =
  let a = mix_a (mix_a (mix_a 0x51ED270B in_port) src) dst in
  let a = mix_a (mix_a (mix_a a ty) ns) nd in
  let a = mix_a (mix_a (mix_a a proto) tps) tpd in
  let b = mix_b (mix_b (mix_b 0x2A5F0B4D in_port) src) dst in
  let b = mix_b (mix_b (mix_b b ty) ns) nd in
  let b = mix_b (mix_b (mix_b b proto) tps) tpd in
  { ka = a; kb = b }

module Index = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 = k1.ka = k2.ka && k1.kb = k2.kb
  let hash k = k.ka lxor k.kb
end)

(* Storage is split by match shape: fully-exact micro-flow rules (the
   thousands a reactive controller installs) live in a hash index keyed
   by the frame-derived tuple, everything with wildcards lives in a
   short sorted list. A packet lookup is then O(bucket + wildcards)
   instead of O(table). *)
type t = {
  mutable wildcards : entry list;  (* sorted: priority desc, oldest first *)
  exact_index : entry list ref Index.t;
  mutable exact_count : int;
  lenient : bool;
}

let create ?(lenient = false) () =
  { wildcards = []; exact_index = Index.create 256; exact_count = 0;
    lenient }

(* A match is indexable when it pins every field of the lookup key and
   wildcards nothing coarser than /32 prefixes. *)
let index_key_of_match (m : Of_match.t) =
  match (m.in_port, m.dl_src, m.dl_dst, m.dl_type) with
  | Some in_port, Some src, Some dst, Some ty -> (
      let nw = function
        | None -> Some (-1)
        | Some (p, 32) -> Some (Jury_packet.Addr.Ipv4.to_int p)
        | Some _ -> None
      in
      match (nw m.nw_src, nw m.nw_dst) with
      | Some ns, Some nd ->
          Some
            (key_of_fields ~in_port
               ~src:(Jury_packet.Addr.Mac.to_int src)
               ~dst:(Jury_packet.Addr.Mac.to_int dst)
               ~ty ~ns ~nd
               ~proto:(Option.value m.nw_proto ~default:(-1))
               ~tps:(Option.value m.tp_src ~default:(-1))
               ~tpd:(Option.value m.tp_dst ~default:(-1)))
      | _ -> None)
  | _ -> None

(* The frame's exact key, computed straight from the frame — the
   allocating detour through [Of_match.exact_of_frame] (a record, ten
   options and two tuples per packet) is gone. Mirrors the field
   mapping of {!Of_match.exact_of_frame}: ARP reuses nw_src/nw_dst for
   SPA/TPA and nw_proto for the opcode; non-IP frames wildcard nw/tp,
   which the key encodes as -1. Always indexable, by construction. *)
let index_key_of_frame ~in_port (frame : Jury_packet.Frame.t) =
  let open Jury_packet in
  let ns, nd, proto =
    match frame.Frame.payload with
    | Frame.Ipv4 ip ->
        (Addr.Ipv4.to_int ip.Frame.src, Addr.Ipv4.to_int ip.Frame.dst,
         ip.Frame.proto)
    | Frame.Arp a ->
        (Addr.Ipv4.to_int a.Frame.spa, Addr.Ipv4.to_int a.Frame.tpa,
         match a.Frame.op with Frame.Request -> 1 | Frame.Reply -> 2)
    | Frame.Lldp _ | Frame.Raw _ -> (-1, -1, -1)
  in
  let tps, tpd =
    match frame.Frame.payload with
    | Frame.Ipv4 { l4 = Frame.Tcp t; _ } -> (t.Frame.src_port, t.Frame.dst_port)
    | Frame.Ipv4 { l4 = Frame.Udp u; _ } -> (u.Frame.src_port, u.Frame.dst_port)
    | Frame.Ipv4 { l4 = Frame.Icmp i; _ } -> (i.Frame.ty, i.Frame.code)
    | Frame.Ipv4 { l4 = Frame.Other_l4 _; _ } | Frame.Arp _ | Frame.Lldp _
    | Frame.Raw _ ->
        (-1, -1)
  in
  key_of_fields ~in_port
    ~src:(Addr.Mac.to_int frame.Frame.dl_src)
    ~dst:(Addr.Mac.to_int frame.Frame.dl_dst)
    ~ty:(Frame.ethertype frame) ~ns ~nd ~proto ~tps ~tpd

let iter_exact t f =
  Index.iter (fun _ bucket -> List.iter f !bucket) t.exact_index

let entry_order a b =
  let c = compare b.priority a.priority in
  if c <> 0 then c else Time.compare a.installed_at b.installed_at

let all_entries t =
  let acc = ref t.wildcards in
  iter_exact t (fun e -> acc := e :: !acc);
  List.stable_sort entry_order !acc

let insert_wildcard t e =
  let rec go = function
    | [] -> [ e ]
    | x :: rest ->
        if
          e.priority > x.priority
          || (e.priority = x.priority && Time.(e.installed_at < x.installed_at))
        then e :: x :: rest
        else x :: go rest
  in
  t.wildcards <- go t.wildcards

let insert t e =
  match index_key_of_match e.rule with
  | None -> insert_wildcard t e
  | Some key ->
      t.exact_count <- t.exact_count + 1;
      (match Index.find_opt t.exact_index key with
      | Some bucket -> bucket := e :: !bucket
      | None -> Index.add t.exact_index key (ref [ e ]))

(* Removal is one pass over the victims: each victim is flagged with
   its [marked] bit and pruned from the one store its own match shape
   places it in (its bucket, or the wildcard list). The previous
   implementation ran [List.memq victims] inside a filter over every
   bucket — O(table x victims) per FLOW_MOD delete and per expiry
   sweep. *)
let prune_bucket t key =
  match Index.find_opt t.exact_index key with
  | None -> ()
  | Some bucket ->
      let rec go = function
        | [] -> []
        | e :: rest ->
            if e.marked then begin
              t.exact_count <- t.exact_count - 1;
              go rest
            end
            else e :: go rest
      in
      bucket := go !bucket;
      if !bucket = [] then Index.remove t.exact_index key

let remove_specific t victims =
  match victims with
  | [] -> ()
  | victims ->
      List.iter (fun e -> e.marked <- true) victims;
      if
        List.exists (fun e -> index_key_of_match e.rule = None) victims
      then t.wildcards <- List.filter (fun e -> not e.marked) t.wildcards;
      List.iter
        (fun e ->
          match index_key_of_match e.rule with
          | None -> ()
          | Some key -> prune_bucket t key)
        victims;
      List.iter (fun e -> e.marked <- false) victims

type apply_result =
  | Installed
  | Modified of int
  | Removed of entry list
  | Rejected of string

let matches_filter (fm : Of_message.flow_mod) ~strict e =
  let port_ok =
    match fm.out_port with
    | None -> true
    | Some p -> List.mem p (Of_action.output_ports e.actions)
  in
  port_ok
  &&
  if strict then Of_match.equal e.rule fm.fm_match && e.priority = fm.priority
  else Of_match.more_specific e.rule fm.fm_match

let fresh_entry ~now (fm : Of_message.flow_mod) rule =
  { rule;
    priority = fm.priority;
    cookie = fm.cookie;
    actions = fm.actions;
    idle_timeout = fm.idle_timeout;
    hard_timeout = fm.hard_timeout;
    installed_at = now;
    last_hit = now;
    packet_count = 0L;
    byte_count = 0L;
    marked = false }

let same_slot rule priority e =
  Of_match.equal e.rule rule && e.priority = priority

(* Entries satisfying [pred], sorted like {!all_entries} but without
   materialising (and sorting) the whole table first. A strict
   modify/delete compares matches for equality, and equal matches have
   equal index keys, so the scan narrows to the rule's own bucket (or
   the wildcard list); non-strict commands must still visit everything,
   but only the hits are accumulated and sorted. *)
let collect_matching t ~rule ~strict pred =
  let acc = ref [] in
  let consider e = if pred e then acc := e :: !acc in
  (if strict then
     match index_key_of_match rule with
     | Some key -> (
         match Index.find_opt t.exact_index key with
         | Some bucket -> List.iter consider !bucket
         | None -> ())
     | None -> List.iter consider t.wildcards
   else begin
     List.iter consider t.wildcards;
     iter_exact t consider
   end);
  List.stable_sort entry_order !acc

let apply_flow_mod t ~now (fm : Of_message.flow_mod) =
  let rule =
    if Of_match.hierarchy_ok fm.fm_match then Some fm.fm_match
    else if t.lenient then Some (Of_match.strip_invalid_fields fm.fm_match)
    else None
  in
  match (rule, fm.command) with
  | None, _ -> Rejected "match violates field hierarchy"
  | Some rule, Add ->
      (* OF 1.0: ADD replaces an identical (match, priority) entry. *)
      (match index_key_of_match rule with
      | Some key -> (
          match Index.find_opt t.exact_index key with
          | Some bucket ->
              remove_specific t
                (List.filter (same_slot rule fm.priority) !bucket)
          | None -> ())
      | None ->
          t.wildcards <-
            List.filter (fun e -> not (same_slot rule fm.priority e))
              t.wildcards);
      insert t (fresh_entry ~now fm rule);
      Installed
  | Some rule, (Modify | Modify_strict) -> (
      let strict = fm.command = Modify_strict in
      let hits =
        collect_matching t ~rule ~strict (fun e ->
            if strict then same_slot rule fm.priority e
            else Of_match.more_specific e.rule rule)
      in
      match hits with
      | [] ->
          insert t (fresh_entry ~now fm rule);
          Installed
      | hits ->
          remove_specific t hits;
          List.iter
            (fun e -> insert t { e with actions = fm.actions })
            hits;
          Modified (List.length hits))
  | Some rule, (Delete | Delete_strict) ->
      let strict = fm.command = Delete_strict in
      let gone =
        collect_matching t ~rule ~strict (matches_filter fm ~strict)
      in
      remove_specific t gone;
      Removed gone

let entry_live ~now e =
  let age_sec = Time.to_float_sec (Time.sub now e.installed_at) in
  let idle_sec = Time.to_float_sec (Time.sub now e.last_hit) in
  (e.hard_timeout = 0 || age_sec < float_of_int e.hard_timeout)
  && (e.idle_timeout = 0 || idle_sec < float_of_int e.idle_timeout)

let lookup t ~now ~in_port frame =
  let best_of candidates =
    List.fold_left
      (fun best e ->
        if entry_live ~now e && Of_match.matches e.rule ~in_port frame then
          match best with
          | Some b
            when b.priority > e.priority
                 || (b.priority = e.priority
                     && Time.(b.installed_at <= e.installed_at)) ->
              best
          | _ -> Some e
        else best)
      None candidates
  in
  let exact =
    match Index.find_opt t.exact_index (index_key_of_frame ~in_port frame) with
    | None -> None
    | Some bucket -> best_of !bucket
  in
  let wild = best_of t.wildcards in
  let winner =
    match (exact, wild) with
    | None, w -> w
    | e, None -> e
    | Some e, Some w -> if w.priority > e.priority then Some w else Some e
  in
  match winner with
  | None -> None
  | Some e ->
      e.last_hit <- now;
      e.packet_count <- Int64.add e.packet_count 1L;
      e.byte_count <-
        Int64.add e.byte_count
          (Int64.of_int (Jury_packet.Frame.size_on_wire frame));
      Some e

let expire t ~now =
  let dead = ref [] in
  List.iter
    (fun e -> if not (entry_live ~now e) then dead := e :: !dead)
    t.wildcards;
  iter_exact t (fun e -> if not (entry_live ~now e) then dead := e :: !dead);
  remove_specific t !dead;
  !dead

let entries t = all_entries t
let size t = List.length t.wildcards + t.exact_count

let has_expirable t =
  let expirable e = e.idle_timeout > 0 || e.hard_timeout > 0 in
  List.exists expirable t.wildcards
  || Index.fold
       (fun _ bucket acc -> acc || List.exists expirable !bucket)
       t.exact_index false

let clear t =
  t.wildcards <- [];
  Index.reset t.exact_index;
  t.exact_count <- 0

let find_exact t m ~priority =
  let candidates =
    match index_key_of_match m with
    | Some key -> (
        match Index.find_opt t.exact_index key with
        | Some bucket -> !bucket
        | None -> [])
    | None -> t.wildcards
  in
  List.find_opt (same_slot m priority) candidates

let pp fmt t =
  List.iter
    (fun e ->
      Format.fprintf fmt "  prio=%-4d %a -> %a (pkts=%Ld)@." e.priority
        Of_match.pp e.rule Of_action.pp_list e.actions e.packet_count)
    (all_entries t)

module Private = struct
  let packed_key_of_match m =
    Option.map (fun k -> (k.ka, k.kb)) (index_key_of_match m)

  let packed_key_of_frame ~in_port frame =
    let k = index_key_of_frame ~in_port frame in
    (k.ka, k.kb)
end
