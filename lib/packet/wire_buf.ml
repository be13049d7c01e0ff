exception Truncated of string

module Writer = struct
  type t = Buffer.t

  let create ?(size = 64) () = Buffer.create size
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t (v lsr 8);
    u8 t v

  let u32 t v =
    u16 t (v lsr 16);
    u16 t v

  let u48 t v =
    u16 t (v lsr 32);
    u32 t v

  let u64 t v =
    u32 t (Int64.to_int (Int64.shift_right_logical v 32));
    u32 t (Int64.to_int (Int64.logand v 0xFFFF_FFFFL))

  let bytes = Buffer.add_string
  let zeros t n = Buffer.add_string t (String.make n '\000')
  let contents = Buffer.contents
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let pos t = t.pos
  let remaining t = String.length t.data - t.pos

  let need t n field = if remaining t < n then raise (Truncated field)

  let u8 t field =
    need t 1 field;
    let v = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t field =
    need t 2 field;
    (* Explicit lets: infix operand evaluation order is unspecified. *)
    let hi = u8 t field in
    let lo = u8 t field in
    (hi lsl 8) lor lo

  let u32 t field =
    let hi = u16 t field in
    let lo = u16 t field in
    (hi lsl 16) lor lo

  let u48 t field =
    let hi = u16 t field in
    let lo = u32 t field in
    (hi lsl 32) lor lo

  let u64 t field =
    let hi = u32 t field in
    let lo = u32 t field in
    Int64.logor
      (Int64.shift_left (Int64.of_int hi) 32)
      (Int64.of_int lo)

  let bytes t n field =
    need t n field;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let skip t n field =
    need t n field;
    t.pos <- t.pos + n

  let rest t =
    let s = String.sub t.data t.pos (remaining t) in
    t.pos <- String.length t.data;
    s
end

let internet_checksum s =
  let n = String.length s in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + ((Char.code s.[!i] lsl 8) lor Char.code s.[!i + 1]);
    i := !i + 2
  done;
  if !i < n then sum := !sum + (Char.code s.[!i] lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF
