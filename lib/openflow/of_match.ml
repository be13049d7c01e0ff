open Jury_packet

type t = {
  in_port : Of_types.Port.t option;
  dl_src : Addr.Mac.t option;
  dl_dst : Addr.Mac.t option;
  dl_vlan : int option option;
  dl_type : int option;
  nw_src : (Addr.Ipv4.t * int) option;
  nw_dst : (Addr.Ipv4.t * int) option;
  nw_proto : int option;
  nw_tos : int option;
  tp_src : int option;
  tp_dst : int option;
}

let wildcard_all =
  { in_port = None;
    dl_src = None;
    dl_dst = None;
    dl_vlan = None;
    dl_type = None;
    nw_src = None;
    nw_dst = None;
    nw_proto = None;
    nw_tos = None;
    tp_src = None;
    tp_dst = None }

let ethertype_arp = 0x0806
let ethertype_ipv4 = 0x0800

let frame_nw (frame : Frame.t) =
  match frame.payload with
  | Frame.Ipv4 ip -> Some (ip.src, ip.dst, ip.proto, ip.dscp)
  | Frame.Arp a ->
      (* OF 1.0 reuses nw_src/nw_dst for ARP SPA/TPA and nw_proto for
         the ARP opcode. *)
      let op = match a.op with Frame.Request -> 1 | Frame.Reply -> 2 in
      Some (a.spa, a.tpa, op, 0)
  | Frame.Lldp _ | Frame.Raw _ -> None

let frame_tp (frame : Frame.t) =
  match frame.payload with
  | Frame.Ipv4 { l4 = Frame.Tcp t; _ } -> Some (t.src_port, t.dst_port)
  | Frame.Ipv4 { l4 = Frame.Udp u; _ } -> Some (u.src_port, u.dst_port)
  | Frame.Ipv4 { l4 = Frame.Icmp i; _ } -> Some (i.ty, i.code)
  | Frame.Ipv4 { l4 = Frame.Other_l4 _; _ } | Frame.Arp _ | Frame.Lldp _
  | Frame.Raw _ ->
      None

let exact_of_frame ~in_port (frame : Frame.t) =
  let ty = Frame.ethertype frame in
  let nw = frame_nw frame in
  let tp = frame_tp frame in
  { in_port = Some in_port;
    dl_src = Some frame.dl_src;
    dl_dst = Some frame.dl_dst;
    dl_vlan = Some frame.vlan;
    dl_type = Some ty;
    nw_src = Option.map (fun (s, _, _, _) -> (s, 32)) nw;
    nw_dst = Option.map (fun (_, d, _, _) -> (d, 32)) nw;
    nw_proto = Option.map (fun (_, _, p, _) -> p) nw;
    nw_tos = Option.map (fun (_, _, _, t) -> t) nw;
    tp_src = Option.map fst tp;
    tp_dst = Option.map snd tp }

let l2_pair ~src ~dst =
  { wildcard_all with dl_src = Some src; dl_dst = Some dst }

let l2_dst ~dst = { wildcard_all with dl_dst = Some dst }

let field_matches v = function None -> true | Some want -> want = v

let matches t ~in_port (frame : Frame.t) =
  field_matches in_port t.in_port
  && field_matches frame.dl_src t.dl_src
  && field_matches frame.dl_dst t.dl_dst
  && (match t.dl_vlan with None -> true | Some want -> want = frame.vlan)
  && field_matches (Frame.ethertype frame) t.dl_type
  &&
  let nw = frame_nw frame in
  let nw_field get pred =
    match get t with
    | None -> true
    | Some want -> ( match nw with None -> false | Some v -> pred want v)
  in
  nw_field
    (fun t -> t.nw_src)
    (fun (prefix, bits) (s, _, _, _) ->
      Addr.Ipv4.matches_prefix s ~prefix ~bits)
  && nw_field
       (fun t -> t.nw_dst)
       (fun (prefix, bits) (_, d, _, _) ->
         Addr.Ipv4.matches_prefix d ~prefix ~bits)
  && nw_field (fun t -> t.nw_proto) (fun want (_, _, p, _) -> want = p)
  && nw_field (fun t -> t.nw_tos) (fun want (_, _, _, tos) -> want = tos)
  &&
  let tp = frame_tp frame in
  let tp_field get pick =
    match get t with
    | None -> true
    | Some want -> ( match tp with None -> false | Some v -> want = pick v)
  in
  tp_field (fun t -> t.tp_src) fst && tp_field (fun t -> t.tp_dst) snd

let hierarchy_ok t =
  let nw_set =
    t.nw_src <> None || t.nw_dst <> None || t.nw_proto <> None
    || t.nw_tos <> None
  in
  let tp_set = t.tp_src <> None || t.tp_dst <> None in
  let nw_backed =
    match t.dl_type with
    | Some ty -> ty = ethertype_ipv4 || ty = ethertype_arp
    | None -> false
  in
  let tp_backed =
    nw_backed
    && t.dl_type = Some ethertype_ipv4
    && (match t.nw_proto with Some (1 | 6 | 17) -> true | Some _ | None -> false)
  in
  ((not nw_set) || nw_backed) && ((not tp_set) || tp_backed)

let strip_invalid_fields t =
  let nw_backed =
    match t.dl_type with
    | Some ty -> ty = ethertype_ipv4 || ty = ethertype_arp
    | None -> false
  in
  let t =
    if nw_backed then t
    else { t with nw_src = None; nw_dst = None; nw_proto = None;
                  nw_tos = None }
  in
  let tp_backed =
    nw_backed
    && t.dl_type = Some ethertype_ipv4
    && (match t.nw_proto with Some (1 | 6 | 17) -> true | Some _ | None -> false)
  in
  if tp_backed then t else { t with tp_src = None; tp_dst = None }

let more_specific a b =
  let sub eq ga gb =
    match (ga a, gb b) with
    | _, None -> true
    | None, Some _ -> false
    | Some va, Some vb -> eq va vb
  in
  let prefix_sub (pa, ba) (pb, bb) =
    ba >= bb && Addr.Ipv4.matches_prefix pa ~prefix:pb ~bits:bb
  in
  sub ( = ) (fun t -> t.in_port) (fun t -> t.in_port)
  && sub Addr.Mac.equal (fun t -> t.dl_src) (fun t -> t.dl_src)
  && sub Addr.Mac.equal (fun t -> t.dl_dst) (fun t -> t.dl_dst)
  && sub ( = ) (fun t -> t.dl_vlan) (fun t -> t.dl_vlan)
  && sub ( = ) (fun t -> t.dl_type) (fun t -> t.dl_type)
  && sub prefix_sub (fun t -> t.nw_src) (fun t -> t.nw_src)
  && sub prefix_sub (fun t -> t.nw_dst) (fun t -> t.nw_dst)
  && sub ( = ) (fun t -> t.nw_proto) (fun t -> t.nw_proto)
  && sub ( = ) (fun t -> t.nw_tos) (fun t -> t.nw_tos)
  && sub ( = ) (fun t -> t.tp_src) (fun t -> t.tp_src)
  && sub ( = ) (fun t -> t.tp_dst) (fun t -> t.tp_dst)

let compare = Stdlib.compare
let equal a b = compare a b = 0
let hash = Hashtbl.hash

(* The printers below write straight into one buffer: [to_string] is
   hashed into every FLOWSDB key. *)

let add_int b v = Buffer.add_string b (string_of_int v)
let add_port b p = Buffer.add_string b (Of_types.Port.to_string p)
let add_mac b m = Buffer.add_string b (Addr.Mac.to_string m)

let add_vlan b = function
  | None -> Buffer.add_string b "untagged"
  | Some v -> add_int b v

(* "0x" and at least four lowercase hex digits; a negative value prints
   as its unsigned 63-bit pattern, as [Printf]'s [%04x] does. *)
let add_hex4 b v =
  let rec width v n = if v = 0 then n else width (v lsr 4) (n + 1) in
  Buffer.add_string b "0x";
  for i = max 4 (width v 0) - 1 downto 0 do
    Buffer.add_char b "0123456789abcdef".[(v lsr (4 * i)) land 15]
  done

let add_prefix b (p, bits) =
  Buffer.add_string b (Addr.Ipv4.to_string p);
  Buffer.add_char b '/';
  add_int b bits

let add_field b name add = function
  | None -> ()
  | Some v ->
      if Buffer.length b > 1 then Buffer.add_char b ',';
      Buffer.add_string b name;
      Buffer.add_char b '=';
      add b v

let to_string t =
  let b = Buffer.create 160 in
  Buffer.add_char b '{';
  add_field b "in_port" add_port t.in_port;
  add_field b "dl_src" add_mac t.dl_src;
  add_field b "dl_dst" add_mac t.dl_dst;
  add_field b "dl_vlan" add_vlan t.dl_vlan;
  add_field b "dl_type" add_hex4 t.dl_type;
  add_field b "nw_src" add_prefix t.nw_src;
  add_field b "nw_dst" add_prefix t.nw_dst;
  add_field b "nw_proto" add_int t.nw_proto;
  add_field b "nw_tos" add_int t.nw_tos;
  add_field b "tp_src" add_int t.tp_src;
  add_field b "tp_dst" add_int t.tp_dst;
  if Buffer.length b = 1 then Buffer.add_char b '*';
  Buffer.add_char b '}';
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
