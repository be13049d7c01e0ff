type tie = int -> int -> bool

let fifo : tie = ( < )
let lifo : tie = ( > )

(* Struct-of-arrays binary heap: entry [i] is [(keys.(i), seqs.(i),
   vals.(i))]. Sifts move a hole instead of swapping, so no operation
   on the pop/push path allocates. Payloads are stored as [Obj.t] so
   that slots at indices >= [size] can hold the immediate [vacant]
   rather than a popped payload: a vacated slot never pins what was
   popped from it. The array is a regular (non-float) block whatever
   ['a] is, since [vacant] is an immediate and generic array writes
   check the block's tag, not the static type. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable size : int;
  tie : tie;
}

let vacant = Obj.repr ()

let create ?(tie = fifo) () =
  { keys = [||]; seqs = [||]; vals = [||]; size = 0; tie }

let length h = h.size
let is_empty h = h.size = 0

(* Does the entry [(k1, s1)] pop before [(k2, s2)]? *)
let[@inline] before h (k1 : int) s1 (k2 : int) s2 =
  k1 < k2 || (k1 = k2 && h.tie s1 s2)

let[@inline] set h i k s v =
  Array.unsafe_set h.keys i k;
  Array.unsafe_set h.seqs i s;
  Array.unsafe_set h.vals i v

(* Moves entry [j] into slot [i]. *)
let[@inline] move h ~src:j ~dst:i =
  set h i (Array.unsafe_get h.keys j) (Array.unsafe_get h.seqs j)
    (Array.unsafe_get h.vals j)

let grow h =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.keys <- extend h.keys 0;
  h.seqs <- extend h.seqs 0;
  h.vals <- extend h.vals vacant

(* Fills the hole at [i] with [(k, s, v)], moving the hole up past
   every ancestor that [(k, s)] pops before. *)
let sift_up h i k s v =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if
      before h k s
        (Array.unsafe_get h.keys parent)
        (Array.unsafe_get h.seqs parent)
    then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  set h !i k s v

(* Fills the hole at [i] with [(k, s, v)], moving the hole down past
   every smaller child. Entries at indices >= [h.size] are ignored. *)
let sift_down h i k s v =
  let n = h.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && before h
               (Array.unsafe_get h.keys r)
               (Array.unsafe_get h.seqs r)
               (Array.unsafe_get h.keys l)
               (Array.unsafe_get h.seqs l)
        then r
        else l
      in
      if
        before h
          (Array.unsafe_get h.keys c)
          (Array.unsafe_get h.seqs c)
          k s
      then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  set h !i k s v

let push h ~key ~seq value =
  if h.size = Array.length h.keys then grow h;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i (key : Time.t :> int) seq (Obj.repr value)

(* Removes slot [i]: the last entry refills the hole and moves
   whichever way its new neighbours require. *)
let delete h i =
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    let k = Array.unsafe_get h.keys last
    and s = Array.unsafe_get h.seqs last
    and v = Array.unsafe_get h.vals last in
    if
      i > 0
      && before h k s
           (Array.unsafe_get h.keys ((i - 1) / 2))
           (Array.unsafe_get h.seqs ((i - 1) / 2))
    then sift_up h i k s v
    else sift_down h i k s v
  end;
  Array.unsafe_set h.vals last vacant

let empty_arg name = invalid_arg ("Heap." ^ name ^ ": empty heap")

let min_key h =
  if h.size = 0 then empty_arg "min_key";
  Time.ns (Array.unsafe_get h.keys 0)

let pop_min h =
  if h.size = 0 then empty_arg "pop_min";
  let v = Array.unsafe_get h.vals 0 in
  delete h 0;
  Obj.obj v

let entry h i = (Time.ns h.keys.(i), h.seqs.(i), Obj.obj h.vals.(i))

let pop h =
  if h.size = 0 then None
  else begin
    let e = entry h 0 in
    delete h 0;
    Some e
  end

let tied_front h =
  if h.size = 0 then []
  else begin
    let min_key = h.keys.(0) in
    let tied = ref [] in
    for i = h.size - 1 downto 0 do
      if h.keys.(i) = min_key then tied := entry h i :: !tied
    done;
    List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) !tied
  end

let remove_seq h ~seq =
  let rec find i =
    if i >= h.size then None
    else if h.seqs.(i) = seq then begin
      let e = entry h i in
      delete h i;
      Some e
    end
    else find (i + 1)
  in
  find 0
