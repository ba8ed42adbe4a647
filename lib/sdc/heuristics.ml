module Value = Vadasa_base.Value
module Relation = Vadasa_relational.Relation
module Tuple = Vadasa_relational.Tuple
module Schema = Vadasa_relational.Schema

type tuple_order = Less_significant_first | Most_risky_first | In_order

let order_tuples order md ~risk indices =
  match order with
  | In_order -> indices
  | Less_significant_first ->
    List.stable_sort
      (fun a b -> Float.compare (Microdata.weight_of md a) (Microdata.weight_of md b))
      indices
  | Most_risky_first ->
    List.stable_sort (fun a b -> Float.compare risk.(b) risk.(a)) indices

type qi_choice = Most_risky_qi | Most_selective_qi | First_qi

type cache = {
  (* keep.(j): the quasi-identifier positions other than j *)
  keep : int array array;
  (* leave_one_out.(j): frequency of each tuple's projection onto
     keep.(j) *)
  leave_one_out : int ref Value.Array_tbl.t array;
  distinct_counts : int array;  (* per quasi-identifier *)
  qi_attrs : string array;
  projections : Tuple.t array;
}

let build_cache md =
  let rel = Microdata.relation md in
  let qi = Microdata.qi_positions md in
  let m = Array.length qi in
  let n = Relation.cardinal rel in
  let projections = Array.init n (fun i -> Tuple.project (Relation.get rel i) qi) in
  let keep =
    Array.init m (fun j ->
        Array.of_list (List.filter (fun p -> p <> j) (List.init m Fun.id)))
  in
  let leave_one_out =
    Array.map
      (fun keep ->
        let table = Value.Array_tbl.create (max 16 n) in
        Array.iter
          (fun proj ->
            let key = Tuple.project proj keep in
            match Value.Array_tbl.find_opt table key with
            | Some c -> incr c
            | None -> Value.Array_tbl.add table key (ref 1))
          projections;
        table)
      keep
  in
  let distinct_counts =
    Array.init m (fun j ->
        let seen = Value.Tbl.create 64 in
        Array.iter
          (fun proj ->
            if not (Value.Tbl.mem seen proj.(j)) then Value.Tbl.add seen proj.(j) ())
          projections;
        Value.Tbl.length seen)
  in
  {
    keep;
    leave_one_out;
    distinct_counts;
    qi_attrs = Array.of_list (Microdata.quasi_identifiers md);
    projections;
  }

let qi_index cache attr =
  let rec go j =
    if j >= Array.length cache.qi_attrs then None
    else if String.equal cache.qi_attrs.(j) attr then Some j
    else go (j + 1)
  in
  go 0

let freq_without cache ~tuple j =
  let key = Tuple.project cache.projections.(tuple) cache.keep.(j) in
  match Value.Array_tbl.find_opt cache.leave_one_out.(j) key with
  | Some c -> !c
  | None -> 0

let choose_qi choice cache md ~tuple ~candidates =
  ignore md;
  match candidates with
  | [] -> None
  | first :: _ ->
    (match choice with
    | First_qi -> Some first
    | Most_selective_qi ->
      let best = ref first and best_score = ref (-1) in
      List.iter
        (fun attr ->
          match qi_index cache attr with
          | Some j when cache.distinct_counts.(j) > !best_score ->
            best := attr;
            best_score := cache.distinct_counts.(j)
          | Some _ | None -> ())
        candidates;
      Some !best
    | Most_risky_qi ->
      (* Maximize the frequency the tuple attains once the attribute is
         ignored: the biggest anonymity gain per suppression. Break ties
         toward the more selective attribute. *)
      let best = ref first and best_freq = ref (-1) and best_distinct = ref (-1) in
      List.iter
        (fun attr ->
          match qi_index cache attr with
          | None -> ()
          | Some j ->
            let f = freq_without cache ~tuple j in
            let d = cache.distinct_counts.(j) in
            if f > !best_freq || (f = !best_freq && d > !best_distinct) then begin
              best := attr;
              best_freq := f;
              best_distinct := d
            end)
        candidates;
      Some !best)

let tuple_order_to_string = function
  | Less_significant_first -> "less-significant-first"
  | Most_risky_first -> "most-risky-first"
  | In_order -> "in-order"

let qi_choice_to_string = function
  | Most_risky_qi -> "most-risky-qi"
  | Most_selective_qi -> "most-selective-qi"
  | First_qi -> "first-qi"
