(** Imperative binary min-heap, the core of the event queue.

    Ties are broken by an insertion sequence number supplied by the
    caller. The default tie-breaker is FIFO on that number, which gives
    the arrival ordering of simultaneous events that a deterministic
    discrete-event simulation requires. A heap can instead be created
    with any strict total order on sequence numbers (only tests use
    one). {!tied_front}/{!remove_seq} let a scheduler, such as the
    schedule explorer, inspect and resolve a timestamp tie one event at
    a time.

    Pushing, {!min_key} and {!pop_min} allocate nothing beyond the
    occasional doubling of the backing arrays, and a removed payload is
    never kept reachable from the heap. *)

type 'a t

type tie = int -> int -> bool
(** [tie a b] orders the insertion sequence numbers of two equal-key
    elements: [true] means the element inserted as [a] pops before the
    one inserted as [b]. A tie-breaker must be a strict total order on
    the sequence numbers the caller supplies (irreflexive, transitive,
    total) or the pop order is unspecified. *)

val fifo : tie
(** [( < )] — first inserted pops first. The default, and the seed's
    documented behaviour. *)

val lifo : tie
(** [( > )] — last inserted pops first; the exact reverse of {!fifo}
    on any set of equal-key elements. *)

val create : ?tie:tie -> unit -> 'a t
(** An empty heap breaking key ties with [tie] (default {!fifo}). *)

val length : 'a t -> int
(** Number of queued elements. *)

val is_empty : 'a t -> bool
(** [length h = 0]. *)

val push : 'a t -> key:Time.t -> seq:int -> 'a -> unit
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)

val min_key : 'a t -> Time.t
(** The key of the minimum, without allocating. Raises
    [Invalid_argument] if the heap is empty. *)

val pop_min : 'a t -> 'a
(** Removes the minimum and returns its payload, without allocating;
    read its key first with {!min_key}. Raises [Invalid_argument] if
    the heap is empty. *)

val pop : 'a t -> (Time.t * int * 'a) option
(** Removes and returns the minimum, or [None] if empty. Allocates the
    result; the event loop uses {!min_key} and {!pop_min} instead. *)

val tied_front : 'a t -> (Time.t * int * 'a) list
(** Every element whose key equals the minimum key, in ascending
    insertion-sequence order (regardless of the heap's tie-breaker);
    [[]] if empty. O(n) — meant for schedule exploration over small
    queues, not for the hot pop path. *)

val remove_seq : 'a t -> seq:int -> (Time.t * int * 'a) option
(** Removes the element inserted with sequence number [seq], wherever
    it sits in the heap; [None] if no such element. O(n) search plus a
    sift. *)
