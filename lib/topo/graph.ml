module Dpid = Jury_openflow.Of_types.Dpid

type endpoint = { dpid : Dpid.t; port : int }
type edge = { a : endpoint; b : endpoint }

module DpidMap = Map.Make (Dpid)

type t = {
  mutable adj : (int * endpoint) list DpidMap.t;
      (* switch -> (local port, remote endpoint) *)
}

let create () = { adj = DpidMap.empty }

let add_switch t dpid =
  if not (DpidMap.mem dpid t.adj) then t.adj <- DpidMap.add dpid [] t.adj

let has_switch t dpid = DpidMap.mem dpid t.adj

let neighbors t dpid =
  match DpidMap.find_opt dpid t.adj with Some l -> l | None -> []

let has_link t e1 e2 =
  List.exists
    (fun (p, remote) -> p = e1.port && remote = e2)
    (neighbors t e1.dpid)

let add_link t e1 e2 =
  if Dpid.equal e1.dpid e2.dpid then invalid_arg "Graph.add_link: self-loop";
  add_switch t e1.dpid;
  add_switch t e2.dpid;
  if not (has_link t e1 e2) then begin
    t.adj <-
      DpidMap.update e1.dpid
        (fun l -> Some ((e1.port, e2) :: Option.value l ~default:[]))
        t.adj;
    t.adj <-
      DpidMap.update e2.dpid
        (fun l -> Some ((e2.port, e1) :: Option.value l ~default:[]))
        t.adj
  end

let remove_link t e1 e2 =
  let prune dpid port remote =
    t.adj <-
      DpidMap.update dpid
        (Option.map
           (List.filter (fun (p, r) -> not (p = port && r = remote))))
        t.adj
  in
  prune e1.dpid e1.port e2;
  prune e2.dpid e2.port e1

let switches t = DpidMap.fold (fun k _ acc -> k :: acc) t.adj [] |> List.rev

let canonical e1 e2 =
  let c = Dpid.compare e1.dpid e2.dpid in
  if c < 0 || (c = 0 && e1.port <= e2.port) then { a = e1; b = e2 }
  else { a = e2; b = e1 }

let edges t =
  DpidMap.fold
    (fun dpid links acc ->
      List.fold_left
        (fun acc (port, remote) ->
          let e = canonical { dpid; port } remote in
          if e.a.dpid = dpid && e.a.port = port then e :: acc else acc)
        acc links)
    t.adj []

let switch_count t = DpidMap.cardinal t.adj
let edge_count t = List.length (edges t)
let copy t = { adj = t.adj }

(* Breadth-first search from [src], the traversal every query below
   shares. [reach u local_port remote] runs once for each switch first
   reached, from switch [u] over its [local_port], in visiting order,
   and must record [remote.dpid] so that [seen] holds for it from then
   on; [seen src] must already hold. Each caller's own table is the
   visited set. *)
let bfs t src ~seen reach =
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (local_port, remote) ->
        if not (seen remote.dpid) then begin
          reach u local_port remote;
          Queue.push remote.dpid q
        end)
      (neighbors t u)
  done

(* parent map: dpid -> (parent dpid, parent's local port, our in port),
   for every switch reached from [src] except [src] itself *)
let bfs_parents t src =
  let parents = Hashtbl.create 64 in
  bfs t src
    ~seen:(fun d -> Dpid.equal d src || Hashtbl.mem parents d)
    (fun u local_port remote ->
      Hashtbl.add parents remote.dpid (u, local_port, remote.port));
  parents

let shortest_path t src dst =
  if not (has_switch t src && has_switch t dst) then None
  else if Dpid.equal src dst then Some [ (src, 0, 0) ]
  else begin
    let parents = bfs_parents t src in
    if not (Hashtbl.mem parents dst) then None
    else begin
      (* Walk back from dst, collecting (dpid, in_port) and the parent's
         out_port. *)
      let rec walk dpid acc =
        match Hashtbl.find_opt parents dpid with
        | None -> (dpid, acc) (* reached src *)
        | Some (parent, parent_out, our_in) ->
            walk parent ((dpid, our_in, parent_out) :: acc)
      in
      let _, hops = walk dst [] in
      (* hops are (dpid, in_port, parent_out_port); convert to the
         (dpid, in_port, out_port) convention. *)
      let rec assemble = function
        | [] -> []
        | (dpid, in_port, _) :: rest ->
            let out_port =
              match rest with
              | [] -> 0
              | (_, _, next_parent_out) :: _ -> next_parent_out
            in
            (dpid, in_port, out_port) :: assemble rest
      in
      let tail = assemble hops in
      let first_out =
        match hops with [] -> 0 | (_, _, parent_out) :: _ -> parent_out
      in
      Some ((src, 0, first_out) :: tail)
    end
  end

type first_hop = No_route | Local | Via of int

module Dpid_tbl = Hashtbl.Make (Dpid)

(* The BFS tree of [bfs_parents], recording for each switch the first
   hop of its tree path instead of its parent: the first hop of the
   path [shortest_path] returns. A [Via] is built once per destination
   and shared by every lookup. *)
let first_hops t src =
  if not (has_switch t src) then fun _ -> No_route
  else begin
    let hops = Dpid_tbl.create 64 in
    Dpid_tbl.add hops src Local;
    bfs t src ~seen:(Dpid_tbl.mem hops) (fun u local_port remote ->
        let hop =
          if Dpid.equal u src then Via local_port else Dpid_tbl.find hops u
        in
        Dpid_tbl.add hops remote.dpid hop);
    fun dst -> try Dpid_tbl.find hops dst with Not_found -> No_route
  end

let distances_to t dst =
  let dist = Hashtbl.create 64 in
  Hashtbl.add dist dst 0;
  bfs t dst ~seen:(Hashtbl.mem dist) (fun u _ remote ->
      Hashtbl.add dist remote.dpid (Hashtbl.find dist u + 1));
  dist

let next_hop_choices t src dst =
  if Dpid.equal src dst then []
  else begin
    let dist = distances_to t dst in
    match Hashtbl.find_opt dist src with
    | None -> []
    | Some dsrc ->
        List.filter_map
          (fun (port, remote) ->
            match Hashtbl.find_opt dist remote.dpid with
            | Some d when d = dsrc - 1 -> Some (port, remote.dpid)
            | _ -> None)
          (neighbors t src)
  end

let connected t =
  match switches t with
  | [] -> true
  | s :: _ ->
      Hashtbl.length (bfs_parents t s) + 1 = switch_count t

let spanning_tree_ports t root =
  let parents = bfs_parents t root in
  let ports = Hashtbl.create 64 in
  let add dpid port =
    let cur = Option.value (Hashtbl.find_opt ports dpid) ~default:[] in
    if not (List.mem port cur) then Hashtbl.replace ports dpid (port :: cur)
  in
  Hashtbl.iter
    (fun child (parent, parent_out, child_in) ->
      add parent parent_out;
      add child child_in)
    parents;
  List.map
    (fun dpid ->
      (dpid, Option.value (Hashtbl.find_opt ports dpid) ~default:[]))
    (switches t)

let pp fmt t =
  Format.fprintf fmt "graph(%d switches, %d links)@." (switch_count t)
    (edge_count t);
  List.iter
    (fun e ->
      Format.fprintf fmt "  %a:%d <-> %a:%d@." Dpid.pp e.a.dpid e.a.port
        Dpid.pp e.b.dpid e.b.port)
    (edges t)
