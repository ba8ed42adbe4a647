module Value = Vadasa_base.Value
module Ids = Vadasa_base.Ids
module Relational = Vadasa_relational
module Relation = Relational.Relation
module Tuple = Relational.Tuple

type outcome = {
  anonymized : Microdata.t;
  generalization_rounds : (string * int) list;
  suppressed_tuples : int list;
  satisfied : bool;
  cells_generalized : int;
}

(* Tuples (excluding fully suppressed ones) living in combinations with
   frequency below k, under standard equality. *)
let small_combination_tuples md ~k =
  let stats =
    Relational.Algebra.Group_stats.compute
      ~semantics:Relational.Null_semantics.Standard
      ~rel:(Microdata.relation md) ~qi:(Microdata.qi_positions md) ()
  in
  let qi = Microdata.qi_positions md in
  let rel = Microdata.relation md in
  let out = ref [] in
  Array.iteri
    (fun i f ->
      let fully_suppressed =
        Array.for_all Value.is_null (Tuple.project (Relation.get rel i) qi)
      in
      if (not fully_suppressed) && f < k then out := i :: !out)
    stats.Relational.Algebra.Group_stats.freq;
  List.rev !out

let distinct_count md attr =
  let rel = Microdata.relation md in
  let pos = Relational.Schema.index_of (Microdata.schema md) attr in
  let seen = Value.Tbl.create 64 in
  Relation.iter (fun t -> Value.Tbl.replace seen t.(pos) ()) rel;
  Value.Tbl.length seen

let run ?(k = 2) ?(max_suppression = 0.01) ~hierarchy input =
  let md = Microdata.copy input in
  let n = Microdata.cardinal md in
  let budget =
    max 0 (int_of_float (Float.round (max_suppression *. float_of_int n)))
  in
  let rounds = Hashtbl.create 8 in
  let cells = ref 0 in
  let continue = ref true in
  let guard = ref 0 in
  while !continue && !guard < 64 do
    incr guard;
    let small = small_combination_tuples md ~k in
    if List.length small <= budget then continue := false
    else begin
      (* Generalize the attribute with the most distinct values, among
         those that can still climb. *)
      let best = ref None in
      List.iter
        (fun attr ->
          let can_climb =
            (* An attribute can climb when at least one of its current
               values has a parent. *)
            let pos = Relational.Schema.index_of (Microdata.schema md) attr in
            let rel = Microdata.relation md in
            let found = ref false in
            Relation.iter
              (fun t ->
                if (not !found) && Hierarchy.parent hierarchy t.(pos) <> None
                then found := true)
              rel;
            !found
          in
          if can_climb then
            let d = distinct_count md attr in
            match !best with
            | Some (_, best_d) when best_d >= d -> ()
            | _ -> best := Some (attr, d))
        (Microdata.quasi_identifiers md);
      match !best with
      | None -> continue := false  (* nothing can generalize further *)
      | Some (attr, _) ->
        let steps = Recoding.recode_attr_fully hierarchy md ~attr in
        if steps = [] then continue := false
        else begin
          cells :=
            !cells
            + List.fold_left
                (fun acc s -> acc + s.Recoding.cells_changed)
                0 steps;
          let r = try Hashtbl.find rounds attr with Not_found -> 0 in
          Hashtbl.replace rounds attr (r + 1)
        end
    end
  done;
  (* Suppress the remaining small-combination tuples entirely. *)
  let ids = Ids.create () in
  let leftovers = small_combination_tuples md ~k in
  List.iter
    (fun tuple ->
      List.iter
        (fun attr -> ignore (Suppression.suppress ids md ~tuple ~attr))
        (Microdata.quasi_identifiers md))
    leftovers;
  {
    anonymized = md;
    generalization_rounds =
      List.sort compare (Hashtbl.fold (fun a r acc -> (a, r) :: acc) rounds []);
    suppressed_tuples = leftovers;
    satisfied = List.length leftovers <= budget;
    cells_generalized = !cells;
  }

let k_anonymous ?(k = 2) md =
  small_combination_tuples md ~k = []
