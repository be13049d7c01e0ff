(* Tests for the OpenFlow substrate: matches, actions, wire codec and
   flow-table semantics. *)

open Jury_openflow
module Frame = Jury_packet.Frame
module Mac = Jury_packet.Addr.Mac
module Ipv4 = Jury_packet.Addr.Ipv4
module Time = Jury_sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let host i = (Mac.of_host_index i, Ipv4.of_host_index i)

let tcp_frame ?(src = 0) ?(dst = 1) ?(sport = 1234) ?(dport = 80) () =
  Frame.tcp_packet ~src:(host src) ~dst:(host dst) ~src_port:sport
    ~dst_port:dport ()

(* --- Matches --- *)

let test_wildcard_matches_everything () =
  check_bool "tcp" true
    (Of_match.matches Of_match.wildcard_all ~in_port:1 (tcp_frame ()));
  let arp =
    Frame.arp_request ~sender:(host 0) ~target:(Ipv4.of_host_index 1)
  in
  check_bool "arp" true (Of_match.matches Of_match.wildcard_all ~in_port:9 arp)

let test_exact_match () =
  let f = tcp_frame () in
  let m = Of_match.exact_of_frame ~in_port:3 f in
  check_bool "matches itself" true (Of_match.matches m ~in_port:3 f);
  check_bool "wrong port" false (Of_match.matches m ~in_port:4 f);
  check_bool "wrong sport" false
    (Of_match.matches m ~in_port:3 (tcp_frame ~sport:9999 ()));
  check_bool "hierarchy ok" true (Of_match.hierarchy_ok m)

let test_l2_pair () =
  let m = Of_match.l2_pair ~src:(fst (host 0)) ~dst:(fst (host 1)) in
  check_bool "matches any port" true
    (Of_match.matches m ~in_port:1 (tcp_frame ()))
  ;
  check_bool "matches other l4" true
    (Of_match.matches m ~in_port:7 (tcp_frame ~sport:1 ~dport:2 ()));
  check_bool "wrong dst" false
    (Of_match.matches m ~in_port:1 (tcp_frame ~dst:5 ()))

let test_prefix_match () =
  let m =
    { Of_match.wildcard_all with
      Of_match.dl_type = Some 0x0800;
      nw_dst = Some (Ipv4.of_string "10.0.0.0", 8) }
  in
  check_bool "in prefix" true (Of_match.matches m ~in_port:1 (tcp_frame ()));
  check_bool "arp spa reuse" true (Of_match.hierarchy_ok m)

let test_hierarchy () =
  let bad = { Of_match.wildcard_all with Of_match.tp_dst = Some 80 } in
  check_bool "tp without nw_proto" false (Of_match.hierarchy_ok bad);
  let stripped = Of_match.strip_invalid_fields bad in
  check_bool "stripped becomes valid" true (Of_match.hierarchy_ok stripped);
  check_bool "tp gone" true (stripped.Of_match.tp_dst = None);
  let nw_only =
    { Of_match.wildcard_all with
      Of_match.nw_proto = Some 6 }
  in
  check_bool "nw without dl_type" false (Of_match.hierarchy_ok nw_only);
  let ok =
    { Of_match.wildcard_all with
      Of_match.dl_type = Some 0x0800;
      nw_proto = Some 6;
      tp_dst = Some 80 }
  in
  check_bool "full chain ok" true (Of_match.hierarchy_ok ok);
  check_bool "strip is identity when valid" true
    (Of_match.equal ok (Of_match.strip_invalid_fields ok))

let test_more_specific () =
  let f = tcp_frame () in
  let exact = Of_match.exact_of_frame ~in_port:1 f in
  let pair = Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst in
  check_bool "exact < pair" true (Of_match.more_specific exact pair);
  check_bool "pair not < exact" false (Of_match.more_specific pair exact);
  check_bool "anything < wildcard" true
    (Of_match.more_specific pair Of_match.wildcard_all);
  check_bool "reflexive" true (Of_match.more_specific exact exact)

(* --- Actions --- *)

let test_actions_apply () =
  let f = tcp_frame () in
  let f', ports =
    Of_action.apply
      [ Of_action.Set_dl_dst (fst (host 9));
        Of_action.Set_nw_dst (Ipv4.of_host_index 9);
        Of_action.Output 3;
        Of_action.Output 5 ]
      f
  in
  Alcotest.(check (list int)) "output ports" [ 3; 5 ] ports;
  check_bool "dl rewritten" true (Mac.equal f'.Frame.dl_dst (fst (host 9)));
  (match f'.Frame.payload with
  | Frame.Ipv4 ip ->
      check_bool "nw rewritten" true (Ipv4.equal ip.Frame.dst (Ipv4.of_host_index 9))
  | _ -> Alcotest.fail "payload");
  check_bool "drop detection" true (Of_action.is_drop []);
  check_bool "not drop" false (Of_action.is_drop [ Of_action.Output 1 ])

let test_action_vlan () =
  let f = tcp_frame () in
  let f', _ = Of_action.apply [ Of_action.Set_vlan 7 ] f in
  Alcotest.(check (option int)) "vlan set" (Some 7) f'.Frame.vlan;
  let f'', _ = Of_action.apply [ Of_action.Strip_vlan ] f' in
  Alcotest.(check (option int)) "vlan stripped" None f''.Frame.vlan

(* --- Wire codec --- *)

let roundtrip payload =
  let msg = Of_message.make ~xid:99 payload in
  let msg' = Of_wire.decode (Of_wire.encode msg) in
  Of_message.equal msg msg'

let test_wire_simple_messages () =
  check_bool "hello" true (roundtrip Of_message.Hello);
  check_bool "echo req" true (roundtrip (Of_message.Echo_request "ping"));
  check_bool "echo rep" true (roundtrip (Of_message.Echo_reply "pong"));
  check_bool "features req" true (roundtrip Of_message.Features_request);
  check_bool "barrier req" true (roundtrip Of_message.Barrier_request);
  check_bool "barrier rep" true (roundtrip Of_message.Barrier_reply);
  check_bool "error" true (roundtrip (Of_message.Error (3, 1)))

let test_wire_features_reply () =
  check_bool "features reply" true
    (roundtrip
       (Of_message.Features_reply
          { datapath_id = Of_types.Dpid.of_int 42;
            n_buffers = 256;
            n_tables = 1;
            ports = [ 1; 2; 3 ] }))

let test_wire_packet_in_out () =
  let f = tcp_frame () in
  check_bool "packet_in" true
    (roundtrip
       (Of_message.Packet_in
          { buffer_id = Some 7; in_port = 3; reason = Of_message.No_match;
            frame = f }));
  check_bool "packet_out buffered" true
    (roundtrip
       (Of_message.Packet_out
          { po_buffer_id = Some 7; po_in_port = 3;
            po_actions = [ Of_action.Output 1 ]; po_frame = None }));
  check_bool "packet_out inline" true
    (roundtrip
       (Of_message.Packet_out
          { po_buffer_id = None; po_in_port = 3;
            po_actions = [ Of_action.Output Of_types.Port.flood ];
            po_frame = Some f }))

let test_wire_flow_mod () =
  let m = Of_match.exact_of_frame ~in_port:2 (tcp_frame ()) in
  check_bool "flow_mod add" true
    (roundtrip
       (Of_message.Flow_mod
          (Of_message.flow_mod ~priority:42 ~idle_timeout:10
             ~buffer_id:(Some 3) m
             [ Of_action.Output 7; Of_action.Set_vlan 3 ])));
  check_bool "flow_mod delete" true
    (roundtrip
       (Of_message.Flow_mod
          (Of_message.flow_mod ~command:Of_message.Delete
             (Of_match.l2_dst ~dst:(fst (host 3)))
             [])))

let test_wire_stream () =
  let msgs =
    [ Of_message.make ~xid:1 Of_message.Hello;
      Of_message.make ~xid:2 (Of_message.Echo_request "x");
      Of_message.make ~xid:3 Of_message.Barrier_request ]
  in
  let stream = String.concat "" (List.map Of_wire.encode msgs) in
  let decoded = Of_wire.decode_all stream in
  check_int "count" 3 (List.length decoded);
  check_bool "all equal" true (List.for_all2 Of_message.equal msgs decoded)

(* A header whose length field is shorter than the header itself must
   be rejected by the codec, not by a stray [String.sub] underneath. *)
let test_wire_bad_length () =
  List.iter
    (fun len ->
      let header =
        Printf.sprintf "\001\000\000%c\000\000\000\001" (Char.chr len)
      in
      let expected = Printf.sprintf "Of_wire: bad length %d" len in
      match Of_wire.decode_all header with
      | exception Invalid_argument msg ->
          Alcotest.(check string) "error message" expected msg
      | _ -> Alcotest.failf "length %d accepted" len)
    [ 0; 7 ]

(* --- Error codes --- *)

let test_error_codes () =
  List.iter
    (fun err ->
      match Of_error.of_wire (Of_error.to_wire err) with
      | Some err' -> check_bool (Of_error.describe err) true (err = err')
      | None -> Alcotest.failf "wire roundtrip lost %s" (Of_error.describe err))
    [ Of_error.Hello_failed `Incompatible;
      Of_error.Bad_request `Buffer_unknown;
      Of_error.Bad_action `Too_many;
      Of_error.Flow_mod_failed `Unsupported;
      Of_error.Port_mod_failed `Bad_hw_addr;
      Of_error.Queue_op_failed `Eperm ];
  check_bool "unknown pair" true (Of_error.of_wire (9, 9) = None);
  check_int "rejected flow mod is type 3" 3
    (fst (Of_error.to_wire Of_error.flow_mod_rejected))

(* --- Flow table --- *)

let fm ?(priority = 100) ?(idle = 0) ?(hard = 0) ?buffer m actions =
  Of_message.flow_mod ~priority ~idle_timeout:idle ~hard_timeout:hard
    ?buffer_id:(Option.map Option.some buffer) m actions

let test_table_priority () =
  let t = Flow_table.create () in
  let f = tcp_frame () in
  let low = Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst in
  let high = Of_match.exact_of_frame ~in_port:1 f in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero
            (fm ~priority:10 low [ Of_action.Output 1 ]));
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero
            (fm ~priority:200 high [ Of_action.Output 2 ]));
  match Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 f with
  | Some e -> check_int "high priority wins" 200 e.Flow_table.priority
  | None -> Alcotest.fail "no match"

let test_table_add_replaces () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm m [ Of_action.Output 1 ]));
  ignore (Flow_table.apply_flow_mod t ~now:(Time.ms 1) (fm m [ Of_action.Output 2 ]));
  check_int "single entry" 1 (Flow_table.size t);
  match Flow_table.entries t with
  | [ e ] ->
      check_bool "newer actions" true
        (Of_action.equal_list e.Flow_table.actions [ Of_action.Output 2 ])
  | _ -> Alcotest.fail "expected one entry"

let test_table_modify () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm m [ Of_action.Output 1 ]));
  (match
     Flow_table.apply_flow_mod t ~now:(Time.ms 1)
       { (fm m [ Of_action.Output 9 ]) with Of_message.command = Of_message.Modify }
   with
  | Flow_table.Modified n -> check_int "modified count" 1 n
  | _ -> Alcotest.fail "expected Modified");
  match Flow_table.entries t with
  | [ e ] ->
      check_bool "actions updated" true
        (Of_action.equal_list e.Flow_table.actions [ Of_action.Output 9 ])
  | _ -> Alcotest.fail "one entry"

let test_table_delete () =
  let t = Flow_table.create () in
  let f = tcp_frame () in
  let exact = Of_match.exact_of_frame ~in_port:1 f in
  let pair = Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm exact [ Of_action.Output 1 ]));
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm ~priority:50 pair [ Of_action.Output 2 ]));
  (* Non-strict delete with the broader match removes both. *)
  (match
     Flow_table.apply_flow_mod t ~now:(Time.ms 1)
       { (fm pair []) with Of_message.command = Of_message.Delete }
   with
  | Flow_table.Removed gone -> check_int "both removed" 2 (List.length gone)
  | _ -> Alcotest.fail "expected Removed");
  check_int "empty" 0 (Flow_table.size t)

let test_table_delete_strict () =
  let t = Flow_table.create () in
  let f = tcp_frame () in
  let exact = Of_match.exact_of_frame ~in_port:1 f in
  let pair = Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm exact [ Of_action.Output 1 ]));
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm ~priority:50 pair [ Of_action.Output 2 ]));
  (match
     Flow_table.apply_flow_mod t ~now:(Time.ms 1)
       { (fm ~priority:50 pair []) with Of_message.command = Of_message.Delete_strict }
   with
  | Flow_table.Removed gone -> check_int "only exact (match,prio)" 1 (List.length gone)
  | _ -> Alcotest.fail "expected Removed");
  check_int "one left" 1 (Flow_table.size t)

let test_table_timeouts () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero
            (fm ~idle:1 m [ Of_action.Output 1 ]));
  let f = tcp_frame () in
  check_bool "live before timeout" true
    (Flow_table.lookup t ~now:(Time.of_float_sec 0.5) ~in_port:1 f <> None);
  (* last hit now at 0.5s; idle expires at 1.5s *)
  check_bool "dead after idle" true
    (Flow_table.lookup t ~now:(Time.of_float_sec 1.6) ~in_port:1 f = None);
  let dead = Flow_table.expire t ~now:(Time.of_float_sec 1.6) in
  check_int "expired" 1 (List.length dead);
  check_int "empty" 0 (Flow_table.size t)

let test_table_hard_timeout () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero
            (fm ~hard:2 m [ Of_action.Output 1 ]));
  let f = tcp_frame () in
  (* Keep hitting it; hard timeout kills it anyway. *)
  check_bool "alive at 1s" true
    (Flow_table.lookup t ~now:(Time.sec 1) ~in_port:1 f <> None);
  check_bool "dead at 3s despite hits" true
    (Flow_table.lookup t ~now:(Time.sec 3) ~in_port:1 f = None)

let test_table_hierarchy_reject_and_lenient () =
  let bad = { Of_match.wildcard_all with Of_match.tp_dst = Some 80 } in
  let strict = Flow_table.create () in
  (match Flow_table.apply_flow_mod strict ~now:Time.zero (fm bad [ Of_action.Output 1 ]) with
  | Flow_table.Rejected _ -> ()
  | _ -> Alcotest.fail "strict table must reject");
  let lenient = Flow_table.create ~lenient:true () in
  (match Flow_table.apply_flow_mod lenient ~now:Time.zero (fm bad [ Of_action.Output 1 ]) with
  | Flow_table.Installed -> ()
  | _ -> Alcotest.fail "lenient table must install");
  (* The installed rule silently lost the tp_dst field: it now matches
     port 9999 traffic too — the paper's T3 inconsistency. *)
  match Flow_table.lookup lenient ~now:(Time.ms 1) ~in_port:1 (tcp_frame ~dport:9999 ()) with
  | Some _ -> ()
  | None -> Alcotest.fail "stripped rule should match any port"

let test_table_exact_index_with_wildcard_override () =
  (* Thousands of exact rules must not shadow a higher-priority
     wildcard rule, and lookups must stay correct either way. *)
  let t = Flow_table.create () in
  for i = 0 to 499 do
    let f = tcp_frame ~sport:(1000 + i) () in
    ignore
      (Flow_table.apply_flow_mod t ~now:Time.zero
         (fm ~priority:100 (Of_match.exact_of_frame ~in_port:1 f)
            [ Of_action.Output 2 ]))
  done;
  check_int "500 rules" 500 (Flow_table.size t);
  (* an exact hit *)
  (match Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 (tcp_frame ~sport:1044 ()) with
  | Some e -> check_int "exact hit" 100 e.Flow_table.priority
  | None -> Alcotest.fail "exact rule must hit");
  (* a miss for an uninstalled connection *)
  check_bool "miss for fresh port" true
    (Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 (tcp_frame ~sport:9999 ()) = None);
  (* higher-priority wildcard beats the exact rule *)
  let f = tcp_frame ~sport:1044 () in
  ignore
    (Flow_table.apply_flow_mod t ~now:(Time.ms 2)
       (fm ~priority:900 (Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst)
          [ Of_action.Output 7 ]));
  (match Flow_table.lookup t ~now:(Time.ms 3) ~in_port:1 f with
  | Some e -> check_int "wildcard override wins" 900 e.Flow_table.priority
  | None -> Alcotest.fail "must match");
  check_bool "has expirable" false (Flow_table.has_expirable t);
  ignore
    (Flow_table.apply_flow_mod t ~now:(Time.ms 4)
       (fm ~idle:5 (Of_match.l2_dst ~dst:(fst (host 9))) [ Of_action.Output 1 ]));
  check_bool "expirable after idle rule" true (Flow_table.has_expirable t)

let test_table_counters () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm m [ Of_action.Output 1 ]));
  for _ = 1 to 5 do
    ignore (Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 (tcp_frame ()))
  done;
  match Flow_table.entries t with
  | [ e ] -> check_bool "packet count" true (e.Flow_table.packet_count = 5L)
  | _ -> Alcotest.fail "one entry"

(* --- QCheck: wire roundtrip over random flow mods --- *)

let gen_match =
  let open QCheck.Gen in
  let mac = map Mac.of_host_index (int_bound 0xFFFF) in
  let m_exact =
    map
      (fun (s, d) -> Of_match.l2_pair ~src:s ~dst:d)
      (pair mac mac)
  in
  let m_dst = map (fun d -> Of_match.l2_dst ~dst:d) mac in
  let m_tcp =
    map
      (fun p ->
        { Of_match.wildcard_all with
          Of_match.dl_type = Some 0x0800;
          nw_proto = Some 6;
          tp_dst = Some p })
      (int_range 1 65_535)
  in
  oneof [ m_exact; m_dst; m_tcp; return Of_match.wildcard_all ]

let gen_flow_mod =
  let open QCheck.Gen in
  map2
    (fun m (prio, port) ->
      Of_message.flow_mod ~priority:prio m [ Of_action.Output port ])
    gen_match
    (pair (int_range 0 65_535) (int_range 1 100))

let prop_flow_mod_roundtrip =
  QCheck.Test.make ~name:"flow_mod wire roundtrip" ~count:300
    (QCheck.make gen_flow_mod)
    (fun fmv -> roundtrip (Of_message.Flow_mod fmv))

let prop_match_strip_idempotent =
  QCheck.Test.make ~name:"strip_invalid_fields idempotent & valid" ~count:300
    (QCheck.make gen_match)
    (fun m ->
      let s = Of_match.strip_invalid_fields m in
      Of_match.hierarchy_ok s
      && Of_match.equal s (Of_match.strip_invalid_fields s))

let suite =
  [ ("wildcard matches everything", `Quick, test_wildcard_matches_everything);
    ("exact match", `Quick, test_exact_match);
    ("l2 pair match", `Quick, test_l2_pair);
    ("prefix match", `Quick, test_prefix_match);
    ("field hierarchy", `Quick, test_hierarchy);
    ("more_specific", `Quick, test_more_specific);
    ("actions apply", `Quick, test_actions_apply);
    ("vlan actions", `Quick, test_action_vlan);
    ("wire simple", `Quick, test_wire_simple_messages);
    ("wire features reply", `Quick, test_wire_features_reply);
    ("wire packet in/out", `Quick, test_wire_packet_in_out);
    ("wire flow mod", `Quick, test_wire_flow_mod);
    ("wire stream deframing", `Quick, test_wire_stream);
    ("wire rejects short length field", `Quick, test_wire_bad_length);
    ("table priority", `Quick, test_table_priority);
    ("table add replaces", `Quick, test_table_add_replaces);
    ("table modify", `Quick, test_table_modify);
    ("table delete", `Quick, test_table_delete);
    ("table delete strict", `Quick, test_table_delete_strict);
    ("table idle timeout", `Quick, test_table_timeouts);
    ("table hard timeout", `Quick, test_table_hard_timeout);
    ("table hierarchy handling", `Quick, test_table_hierarchy_reject_and_lenient);
    ("table counters", `Quick, test_table_counters);
    ("table exact index + wildcard override", `Quick,
     test_table_exact_index_with_wildcard_override);
    ("error codes", `Quick, test_error_codes);
    QCheck_alcotest.to_alcotest prop_flow_mod_roundtrip;
    QCheck_alcotest.to_alcotest prop_match_strip_idempotent ]
