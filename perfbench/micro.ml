(* Direct timings of single layer functions, in ns/op and words/op, and
   the GC pause total read back from the runtime's own event ring. *)

open Jury_sim
module Of_message = Jury_openflow.Of_message

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median over 7 batches of the per-op cost of [iters] calls. *)
let time_op ~iters f =
  for _ = 1 to max 1 (iters / 10) do ignore (Sys.opaque_identity (f ())) done;
  let ns = ref [] and words = ref [] in
  for _ = 1 to 7 do
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    for _ = 1 to iters do ignore (Sys.opaque_identity (f ())) done;
    let t1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    ns := (float_of_int (t1 - t0) /. float_of_int iters) :: !ns;
    words := ((w1 -. w0) /. float_of_int iters) :: !words
  done;
  (median !ns, median !words)

let mac i = Jury_packet.Addr.Mac.of_host_index i
let ip i = Jury_packet.Addr.Ipv4.of_host_index i

(* Hits the 50th of the table's 100 L2 entries below. *)
let frame =
  Jury_packet.Frame.tcp_packet ~src:(mac 50, ip 50) ~dst:(mac 51, ip 51)
    ~src_port:40001 ~dst_port:80 ()

let packet_in =
  Of_message.make ~xid:11
    (Of_message.Packet_in
       { buffer_id = Some 1; in_port = 1; reason = Of_message.No_match; frame })

(* The policy row must time what the validator calls per response —
   the compiled trie — never the Engine.check reference interpreter. *)
let policy_check () =
  let compiled =
    Jury_policy.Engine.compiled
      (Jury_policy.Engine.create (Workload.policy_rules ()))
  in
  fun () -> Jury_policy.Compiled.check compiled Workload.policy_query

let rows () =
  let engine = Engine.create () in
  let noop () = () in
  let table = Jury_openflow.Flow_table.create () in
  let at = Time.ms 1 in
  for i = 1 to 100 do
    ignore
      (Jury_openflow.Flow_table.apply_flow_mod table ~now:at
         (Of_message.flow_mod ~priority:i
            (Jury_openflow.Of_match.l2_pair ~src:(mac i) ~dst:(mac (i + 1)))
            [ Jury_openflow.Of_action.Output 2 ]))
  done;
  let wire = Jury_openflow.Of_wire.encode packet_in in
  [ ( "sim.ns_per_event",
      "sim.words_per_event",
      time_op ~iters:100_000 (fun () ->
          ignore (Engine.schedule engine ~after:Time.zero noop);
          Engine.step engine) );
    ("policy.check_ns", "policy.check_words", time_op ~iters:100_000 (policy_check ()));
    ( "openflow.flow_table_lookup_ns",
      "openflow.flow_table_lookup_words",
      time_op ~iters:10_000 (fun () ->
          Jury_openflow.Flow_table.lookup table ~now:at ~in_port:1 frame) );
    ( "openflow.of_wire_decode_ns",
      "openflow.of_wire_decode_words",
      time_op ~iters:50_000 (fun () -> Jury_openflow.Of_wire.decode wire) );
    ( "jury.encap_ns",
      "jury.encap_words",
      time_op ~iters:20_000 (fun () ->
          Jury.Encap.decapsulate (Jury.Encap.encapsulate packet_in)) ) ]

(* --- GC pauses from a stdlib Runtime_events consumer on this process --- *)

module Gc_pause = struct
  type state = {
    mutable depth : int;
    mutable opened : int64;
    mutable total_ns : int64;
    mutable lost : int;
  }

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    st : state;
  }

  (* Minor collections and major slices stop the mutator; the union of
     their intervals is the pause time. *)
  let pausing = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let ns ts = Runtime_events.Timestamp.to_int64 ts

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  let create () =
    Runtime_events.start ();
    let st = { depth = 0; opened = 0L; total_ns = 0L; lost = 0 } in
    let runtime_begin _ ts phase =
      if pausing phase then begin
        if st.depth = 0 then st.opened <- ns ts;
        st.depth <- st.depth + 1
      end
    in
    let runtime_end _ ts phase =
      if pausing phase && st.depth > 0 then begin
        st.depth <- st.depth - 1;
        if st.depth = 0 then
          st.total_ns <- Int64.add st.total_ns (Int64.sub (ns ts) st.opened)
      end
    in
    let lost_events _ n = st.lost <- st.lost + n in
    let t =
      { cursor = Runtime_events.create_cursor None;
        callbacks =
          Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
            ~lost_events ();
        st }
    in
    poll t;
    t

  let total_s t = Int64.to_float t.st.total_ns /. 1e9
  let lost t = t.st.lost
end
