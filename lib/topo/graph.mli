(** Undirected multigraph of switches and their inter-switch links.

    Nodes are datapath ids; an edge records the port each endpoint uses,
    so routing can emit concrete output ports. Host attachment points
    live alongside the graph (a host hangs off a switch port but is not
    a graph node). *)

module Dpid = Jury_openflow.Of_types.Dpid

type endpoint = { dpid : Dpid.t; port : int }

type edge = { a : endpoint; b : endpoint }
(** Canonical orientation: [a.dpid <= b.dpid] (tie broken by port). *)

type t

val create : unit -> t
val add_switch : t -> Dpid.t -> unit

val add_link : t -> endpoint -> endpoint -> unit
(** Adds both switches if missing; idempotent per (endpoint, endpoint)
    pair. Self-loops are rejected. *)

val remove_link : t -> endpoint -> endpoint -> unit
val has_switch : t -> Dpid.t -> bool
val has_link : t -> endpoint -> endpoint -> bool
val switches : t -> Dpid.t list
val edges : t -> edge list

val neighbors : t -> Dpid.t -> (int * endpoint) list
(** [(local_port, remote_endpoint)] pairs for the given switch. *)

val switch_count : t -> int
val edge_count : t -> int
val copy : t -> t

val shortest_path : t -> Dpid.t -> Dpid.t -> (Dpid.t * int * int) list option
(** BFS hop-count path. Returns per-hop [(dpid, in_port, out_port)]
    triples: the packet enters switch [dpid] on [in_port] (0 for the
    first hop, meaning "from the host/ingress") and leaves on
    [out_port] (0 on the last hop, meaning "to the host"). [None] if
    disconnected, [Some []] never occurs; a path from a switch to
    itself is [Some [(s, 0, 0)]]. *)

type first_hop =
  | No_route  (** either switch is unknown, or no path joins them *)
  | Local  (** source and destination are the same switch *)
  | Via of int  (** the source's out port toward the destination *)

val first_hops : t -> Dpid.t -> Dpid.t -> first_hop
(** [first_hops g src] runs one BFS from [src] and returns a lookup
    from a destination to the first hop of the path
    [shortest_path g src dst] would return: [Via out] where that path
    starts [(src, 0, out)] and has a second hop, [Local] where it is
    [Some [(src, 0, 0)]], [No_route] where it is [None]. The BFS tree,
    and hence every port, is the one [shortest_path] walks, so ties
    between equal-cost paths break the same way. Apply it once per
    source and reuse the lookup while [g] is unchanged; the lookup
    does not see later edits to [g]. *)

val next_hop_choices : t -> Dpid.t -> Dpid.t -> (int * Dpid.t) list
(** Equal-cost first hops from src toward dst: every (out_port,
    neighbor) whose hop distance to dst is exactly one less than
    src's. Empty if unreachable or src = dst. *)

val connected : t -> bool
val spanning_tree_ports : t -> Dpid.t -> (Dpid.t * int list) list
(** Per-switch list of ports on a BFS spanning tree rooted at the given
    switch — used for loop-free flooding. *)

val pp : Format.formatter -> t -> unit
