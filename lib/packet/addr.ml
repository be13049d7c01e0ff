let hex_digits = "0123456789abcdef"

(* Decimal digits of [v] (0..255) at [pos]; returns the next position. *)
let put_octet b pos v =
  let put pos d = Bytes.unsafe_set b pos (Char.unsafe_chr (48 + d)) in
  if v >= 100 then begin
    put pos (v / 100);
    put (pos + 1) (v / 10 mod 10);
    put (pos + 2) (v mod 10);
    pos + 3
  end
  else if v >= 10 then begin
    put pos (v / 10);
    put (pos + 1) (v mod 10);
    pos + 2
  end
  else begin
    put pos v;
    pos + 1
  end

module Mac = struct
  type t = int

  let mask48 = 0xFFFF_FFFF_FFFF
  let of_int x = x land mask48
  let to_int t = t
  let broadcast = mask48
  let zero = 0
  let is_broadcast t = t = broadcast
  let is_multicast t = t land 0x0100_0000_0000 <> 0

  let of_string s =
    let parts = String.split_on_char ':' s in
    if List.length parts <> 6 then invalid_arg "Mac.of_string: need 6 octets";
    List.fold_left
      (fun acc p ->
        let v =
          try int_of_string ("0x" ^ p)
          with Failure _ -> invalid_arg "Mac.of_string: bad octet"
        in
        if v < 0 || v > 0xFF then invalid_arg "Mac.of_string: octet range";
        (acc lsl 8) lor v)
      0 parts

  (* "aa:bb:cc:dd:ee:ff": two lowercase hex digits per octet. *)
  let to_string t =
    let b = Bytes.make 17 ':' in
    for i = 0 to 5 do
      let v = (t lsr (40 - (8 * i))) land 0xFF in
      Bytes.unsafe_set b (3 * i) hex_digits.[v lsr 4];
      Bytes.unsafe_set b ((3 * i) + 1) hex_digits.[v land 15]
    done;
    Bytes.unsafe_to_string b

  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let compare = Int.compare
  let equal = Int.equal
  let hash = Hashtbl.hash
  let of_host_index i = of_int (0x0200_0000_0000 lor (i land 0xFFFF_FFFF))
  let lldp_nearest_bridge = of_string "01:80:c2:00:00:0e"
end

module Ipv4 = struct
  type t = int

  let mask32 = 0xFFFF_FFFF
  let of_int x = x land mask32
  let to_int t = t

  let of_string s =
    let parts = String.split_on_char '.' s in
    if List.length parts <> 4 then invalid_arg "Ipv4.of_string: need 4 octets";
    List.fold_left
      (fun acc p ->
        let v =
          try int_of_string p
          with Failure _ -> invalid_arg "Ipv4.of_string: bad octet"
        in
        if v < 0 || v > 255 then invalid_arg "Ipv4.of_string: octet range";
        (acc lsl 8) lor v)
      0 parts

  (* Dotted quad, each octet in decimal without leading zeros. *)
  let to_string t =
    let b = Bytes.create 15 in
    let pos = ref 0 in
    for i = 0 to 3 do
      if i > 0 then begin
        Bytes.unsafe_set b !pos '.';
        incr pos
      end;
      pos := put_octet b !pos ((t lsr (24 - (8 * i))) land 0xFF)
    done;
    Bytes.sub_string b 0 !pos

  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let compare = Int.compare
  let equal = Int.equal
  let any = 0
  let broadcast = mask32

  let of_host_index i =
    of_int (0x0A00_0000 lor ((i land 0xFFFF) + 1))

  let matches_prefix a ~prefix ~bits =
    if bits < 0 || bits > 32 then invalid_arg "Ipv4.matches_prefix: bits";
    if bits = 0 then true
    else begin
      let mask = mask32 lxor ((1 lsl (32 - bits)) - 1) in
      a land mask = to_int prefix land mask
    end
end
