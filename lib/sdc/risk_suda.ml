module Value = Vadasa_base.Value
module Relational = Vadasa_relational
module Tuple = Relational.Tuple
module Relation = Relational.Relation

type tuple_msus = {
  msus : int array list;
  min_size : int option;
}

(* All subsets of {0..m-1} of size 1..max_size, ascending by size, each as
   a sorted position array paired with its bitmask. *)
let subsets m max_size =
  let out = ref [] in
  let rec extend subset last size =
    if size > 0 then
      for next = last + 1 to m - 1 do
        let subset' = next :: subset in
        out := List.rev subset' :: !out;
        extend subset' next (size - 1)
      done
  in
  extend [] (-1) max_size;
  let all = List.map Array.of_list !out in
  List.sort (fun a b -> Int.compare (Array.length a) (Array.length b)) all

let mask_of positions =
  Array.fold_left (fun acc p -> acc lor (1 lsl p)) 0 positions

(* Frequency table of the projections onto [positions] of all tuples. *)
let freq_table projections positions =
  let table = Value.Array_tbl.create (Array.length projections) in
  Array.iter
    (fun proj ->
      let key = Tuple.project proj positions in
      match Value.Array_tbl.find_opt table key with
      | Some count -> incr count
      | None -> Value.Array_tbl.add table key (ref 1))
    projections;
  table

let find_msus ?(max_size = 3) md =
  let rel = Microdata.relation md in
  let qi = Microdata.qi_positions md in
  let m = Array.length qi in
  let n = Relation.cardinal rel in
  let max_size = min max_size m in
  let projections =
    Array.init n (fun i -> Tuple.project (Relation.get rel i) qi)
  in
  let subset_list = subsets m max_size in
  let tables = Hashtbl.create (List.length subset_list) in
  List.iter
    (fun positions ->
      Hashtbl.replace tables (mask_of positions)
        (positions, freq_table projections positions))
    subset_list;
  (* Frequency of tuple [i] for subset [mask], restricted to the tuple's
     non-null positions (maybe-match handling of suppressed values). *)
  let non_null_mask = Array.map (fun _ -> 0) projections in
  Array.iteri
    (fun i proj ->
      let mask = ref 0 in
      Array.iteri
        (fun p v -> if not (Value.is_null v) then mask := !mask lor (1 lsl p))
        proj;
      non_null_mask.(i) <- !mask)
    projections;
  let freq_of i mask =
    let effective = mask land non_null_mask.(i) in
    if effective = 0 then n
    else
      let positions, table = Hashtbl.find tables effective in
      let key = Tuple.project projections.(i) positions in
      (match Value.Array_tbl.find_opt table key with Some c -> !c | None -> 0)
  in
  Array.init n (fun i ->
      let found = ref [] in
      let found_masks = ref [] in
      List.iter
        (fun positions ->
          let mask = mask_of positions in
          (* Minimality pruning: a superset of a found MSU is unique but
             not minimal — skip without touching the tables. *)
          let dominated =
            List.exists (fun m' -> m' land mask = m') !found_masks
          in
          if (not dominated) && freq_of i mask = 1 then begin
            found := positions :: !found;
            found_masks := mask :: !found_masks
          end)
        subset_list;
      let msus = List.rev !found in
      let min_size =
        List.fold_left
          (fun acc s ->
            match acc with
            | None -> Some (Array.length s)
            | Some best -> Some (min best (Array.length s)))
          None msus
      in
      { msus; min_size })

let estimate ~max_msu_size ~threshold_size md =
  let per_tuple = find_msus ~max_size:max_msu_size md in
  Array.map
    (fun { min_size; _ } ->
      match min_size with
      | Some s when s < threshold_size -> 1.0
      | Some _ | None -> 0.0)
    per_tuple

let dis_scores ?(max_size = 3) md =
  let m = Array.length (Microdata.qi_positions md) in
  let per_tuple = find_msus ~max_size md in
  let denom = float_of_int (1 lsl (max 1 m - 1)) in
  Array.map
    (fun { msus; _ } ->
      let raw =
        List.fold_left
          (fun acc s -> acc +. float_of_int (1 lsl (m - Array.length s)))
          0.0 msus
      in
      Float.min 1.0 (raw /. denom))
    per_tuple
