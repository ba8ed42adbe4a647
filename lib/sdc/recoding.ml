module Value = Vadasa_base.Value
module Relation = Vadasa_relational.Relation
module Tuple = Vadasa_relational.Tuple
module Schema = Vadasa_relational.Schema

type step = {
  recoded_attr : string;
  from_value : Value.t;
  to_value : Value.t;
  cells_changed : int;
}

let recode_value hierarchy md ~attr value =
  (match Microdata.category_of md attr with
  | Microdata.Quasi_identifier -> ()
  | _ ->
    invalid_arg ("Recoding.recode_value: " ^ attr ^ " is not a quasi-identifier"));
  match Hierarchy.parent hierarchy value with
  | None -> None
  | Some target ->
    let rel = Microdata.relation md in
    let pos = Schema.index_of (Microdata.schema md) attr in
    let changed = ref 0 in
    Relation.iteri
      (fun i t ->
        if Value.equal (Tuple.get t pos) value then begin
          Relation.set rel i (Tuple.set t pos target);
          incr changed
        end)
      rel;
    Vadasa_telemetry.Telemetry.count "sdc.recoding.cells" !changed;
    Some
      {
        recoded_attr = attr;
        from_value = value;
        to_value = target;
        cells_changed = !changed;
      }

let recode_tuple hierarchy md ~tuple ~attr =
  let pos = Schema.index_of (Microdata.schema md) attr in
  let value = Tuple.get (Relation.get (Microdata.relation md) tuple) pos in
  if Value.is_null value then None
  else recode_value hierarchy md ~attr value

let recode_attr_fully hierarchy md ~attr =
  let pos = Schema.index_of (Microdata.schema md) attr in
  let rel = Microdata.relation md in
  let distinct = Value.Tbl.create 32 in
  Relation.iter
    (fun t ->
      let v = Tuple.get t pos in
      if not (Value.is_null v) then Value.Tbl.replace distinct v v)
    rel;
  Value.Tbl.fold
    (fun _ v acc ->
      match recode_value hierarchy md ~attr v with
      | Some step -> step :: acc
      | None -> acc)
    distinct []

let program =
  {|
% Algorithm 8 - global recoding: climb the attribute's type hierarchy one
% level and replace the value with its coarser parent Z.
@label("global_recoding").
tuple_r(I, union(remove_key(VS, A), coll((A, Z)))) :-
  tuple(I, VS), anonymize(I, A),
  type_of(A, X), sub_type_of(X, Y),
  is_a(V, Z), V = get(VS, A), inst_of(Z, Y).
@output("tuple_r").
|}
