open Jury_sim

type suspect_row = {
  controller : int;
  alarm_count : int;
  fault_kinds : (string * int) list;
  first_at : Time.t;
  last_at : Time.t;
}

type t = {
  decided : int;
  ok : int;
  non_deterministic : int;
  unverifiable : int;
  degraded : int;
  overload : int;
  faulty : int;
  suspects : suspect_row list;
  detection : Jury_stats.Summary.t option;
}

let bump tbl key f init =
  match Hashtbl.find_opt tbl key with
  | Some v -> Hashtbl.replace tbl key (f v)
  | None -> Hashtbl.replace tbl key (f init)

let of_verdicts ~decided ~ok ~non_deterministic ~unverifiable ~degraded
    ~overload verdicts =
  let faulty_alarms = List.filter Alarm.is_fault verdicts in
  let per_suspect = Hashtbl.create 8 in
  List.iter
    (fun (a : Alarm.t) ->
      let kinds =
        match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.map Alarm.fault_name fs
        | _ -> []
      in
      List.iter
        (fun suspect ->
          bump per_suspect suspect
            (fun (count, kind_tbl, first, last) ->
              List.iter
                (fun k -> bump kind_tbl k (fun n -> n + 1) 0)
                kinds;
              ( count + 1,
                kind_tbl,
                Time.min first a.Alarm.decided_at,
                Time.max last a.Alarm.decided_at ))
            (0, Hashtbl.create 4, a.Alarm.decided_at, a.Alarm.decided_at))
        a.Alarm.suspects)
    faulty_alarms;
  (* Rankings break count ties by controller id and kind name, never
     by hash-table order, so equal verdict streams render equally. *)
  let suspects =
    Hashtbl.fold
      (fun controller (alarm_count, kind_tbl, first_at, last_at) acc ->
        let fault_kinds =
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) kind_tbl []
          |> List.sort (fun (ka, a) (kb, b) ->
                 match compare b a with 0 -> String.compare ka kb | c -> c)
        in
        { controller; alarm_count; fault_kinds; first_at; last_at } :: acc)
      per_suspect []
    |> List.sort (fun a b ->
           match compare b.alarm_count a.alarm_count with
           | 0 -> compare a.controller b.controller
           | c -> c)
  in
  let detection =
    match verdicts with
    | [] -> None
    | vs ->
        Some
          (Jury_stats.Summary.of_list
             (List.map
                (fun a -> Time.to_float_ms (Alarm.detection_time a))
                vs))
  in
  { decided;
    ok;
    non_deterministic;
    unverifiable;
    degraded;
    overload;
    faulty = List.length faulty_alarms;
    suspects;
    detection }

let of_validator v =
  let verdicts = Validator.verdicts v in
  let count pred = List.length (List.filter pred verdicts) in
  of_verdicts
    ~decided:(Validator.decided_count v)
    ~ok:(count (fun a -> a.Alarm.verdict = Alarm.Ok_valid))
    ~non_deterministic:
      (count (fun a -> a.Alarm.verdict = Alarm.Ok_non_deterministic))
    ~unverifiable:(Validator.unverifiable_count v)
    ~degraded:(Validator.degraded_count v)
    ~overload:(Validator.overload_count v)
    verdicts

let of_alarms ~decided ~unverifiable alarms =
  let faulty = List.length (List.filter Alarm.is_fault alarms) in
  let degraded =
    List.length
      (List.filter
         (fun (a : Alarm.t) -> a.Alarm.verdict = Alarm.Ok_degraded)
         alarms)
  in
  let overload =
    List.length
      (List.filter
         (fun (a : Alarm.t) -> a.Alarm.verdict = Alarm.Overload)
         alarms)
  in
  of_verdicts ~decided
    ~ok:(decided - faulty - unverifiable - degraded - overload)
    ~non_deterministic:0 ~unverifiable ~degraded ~overload alarms

let healthy t = t.faulty = 0

let most_suspect t =
  match t.suspects with [] -> None | s :: _ -> Some s.controller

let pp fmt t =
  (* The degraded and overload columns only appear when such verdicts
     exist, so reports from runs without a lossy channel or an
     in-flight cap stay byte-identical to the historical format. *)
  let extra =
    (if t.degraded > 0 then Printf.sprintf ", %d degraded" t.degraded else "")
    ^
    if t.overload > 0 then Printf.sprintf ", %d overload" t.overload else ""
  in
  Format.fprintf fmt
    "validated %d responses: %d ok, %d non-deterministic, %d unverifiable%s, \
     %d faulty@."
    t.decided t.ok t.non_deterministic t.unverifiable extra t.faulty;
  (match t.detection with
  | Some s ->
      Format.fprintf fmt "detection time (ms): %a@." Jury_stats.Summary.pp s
  | None -> ());
  List.iter
    (fun row ->
      Format.fprintf fmt "  controller %d: %d alarm(s) [%s] between %a and %a@."
        row.controller row.alarm_count
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s x%d" k n)
              row.fault_kinds))
        Time.pp row.first_at Time.pp row.last_at)
    t.suspects

let to_string t = Format.asprintf "%a" pp t
