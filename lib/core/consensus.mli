(** Response fingerprints for the validator's consensus step (§IV-C).

    Pure functions of action lists: two replicas took "the same
    response" iff their fingerprints are equal. Buffer ids, which only
    the primary's switch allocates, are erased first, including inside
    re-encoded FLOWSDB values. *)

module Types = Jury_controller.Types

val fingerprint : Types.action list -> string
(** Order-insensitive fingerprint of one response. *)

val fingerprints : Types.action list list -> string list
(** [List.map fingerprint], computing each structurally distinct list
    once: a list [=] to an earlier one reuses its string. Exact, since
    [fingerprint] is a function of the list's value and actions hold
    only plain data. *)

val majority : string list -> (string * int) option
(** Most frequent fingerprint and its count; [None] on an empty list. *)
