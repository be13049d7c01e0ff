module Types = Jury_controller.Types
module Values = Jury_controller.Values
module Names = Jury_store.Cache_names
module Of_message = Jury_openflow.Of_message

let normalize_flow (fm : Of_message.flow_mod) =
  { fm with Of_message.fm_buffer_id = None }

let action_fingerprint (a : Types.action) =
  (* Buffer ids differ between primary and shadow executions (only the
     primary's switch allocated one), so they are erased before
     comparison; likewise FLOWSDB values re-encode with the buffer
     cleared. *)
  match a with
  | Types.Network_send { dpid; payload = Of_message.Flow_mod fm } ->
      Types.action_fingerprint
        (Types.Network_send
           { dpid; payload = Of_message.Flow_mod (normalize_flow fm) })
  | Types.Network_send { dpid; payload = Of_message.Packet_out po } ->
      Types.action_fingerprint
        (Types.Network_send
           { dpid;
             payload = Of_message.Packet_out { po with po_buffer_id = None } })
  | Types.Cache_write { cache; op; key; value } when cache = Names.flowsdb -> (
      match Values.Flow.parse value with
      | Some fm ->
          Types.action_fingerprint
            (Types.Cache_write
               { cache; op; key;
                 value = Values.Flow.value (normalize_flow fm) })
      | None -> Types.action_fingerprint a)
  | _ -> Types.action_fingerprint a

let fingerprint actions =
  actions
  |> List.map action_fingerprint
  |> List.sort String.compare
  |> String.concat "\n"

(* The k+1 executions of a trigger almost always return equal lists, so
   a short association list of the lists seen so far replaces all but
   the first fingerprint with a structural comparison. *)
let fingerprints lists =
  let rec known actions = function
    | [] -> None
    | (seen, fp) :: rest ->
        if seen == actions || seen = actions then Some fp
        else known actions rest
  in
  let seen = ref [] in
  List.map
    (fun actions ->
      match known actions !seen with
      | Some fp -> fp
      | None ->
          let fp = fingerprint actions in
          seen := (actions, fp) :: !seen;
          fp)
    lists

let majority fps =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun fp ->
      match Hashtbl.find_opt tbl fp with
      | Some r -> incr r
      | None -> Hashtbl.add tbl fp (ref 1))
    fps;
  Hashtbl.fold
    (fun fp r best ->
      match best with
      | Some (_, n) when n >= !r -> best
      | _ -> Some (fp, !r))
    tbl None
