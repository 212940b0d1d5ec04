(* Bit-equality oracle. Each comparator walks its two arguments in a fixed
   order and stops at the first difference, which it names; floats are
   compared by IEEE bit pattern, never by [=] or [Float.equal] (those
   identify -0.0 with 0.0 and separate equal NaNs). *)

open Relational

type verdict = (unit, string) result

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf Result.error fmt
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* [check i] for i = 0 .. n-1, stopping at the first error. *)
let rec each i n check =
  if i >= n then Ok ()
  else
    let* () = check i in
    each (i + 1) n check

(* Exact hexadecimal; a NaN shows its bit pattern, which [%h] drops. *)
let hex x =
  if Float.is_nan x then Printf.sprintf "nan(0x%Lx)" (Int64.bits_of_float x)
  else Printf.sprintf "%h" x

(* [what] builds the coordinate's name only when the floats differ. *)
let float what x y =
  if same_bits x y then Ok () else fail "%t: %s vs %s" what (hex x) (hex y)

let show = function Value.Float x -> hex x | v -> Value.to_string v

let value_equal a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> same_bits x y
  | _ -> Value.equal a b

let value a b = if value_equal a b then Ok () else fail "%s vs %s" (show a) (show b)

(* [column j] names column [j] in the diff. *)
let columns column a b =
  let n = Array.length a in
  if Array.length b <> n then fail "arity %d vs %d" n (Array.length b)
  else
    each 0 n (fun j ->
        Result.map_error (Printf.sprintf "%s: %s" (column j)) (value a.(j) b.(j)))

let tuple a b = columns (Printf.sprintf "column %d") a b

let relation a b =
  let names r = Schema.names (Relation.schema r) in
  let rows = Relation.cardinality a in
  let show_names r = String.concat "; " (names r) in
  if names a <> names b then fail "attributes [%s] vs [%s]" (show_names a) (show_names b)
  else if Relation.cardinality b <> rows then
    fail "rows %d vs %d" rows (Relation.cardinality b)
  else
    let attrs = Array.of_list (names a) in
    each 0 rows (fun i ->
        columns
          (fun j -> Printf.sprintf "row %d, column %s" i attrs.(j))
          (Relation.get a i) (Relation.get b i))

let covariance (a : Rings.Covariance.t) (b : Rings.Covariance.t) =
  let n = Rings.Covariance.dim a in
  if Rings.Covariance.dim b <> n then fail "dim %d vs %d" n (Rings.Covariance.dim b)
  else
    let* () = float (fun () -> "c") a.c b.c in
    let* () =
      each 0 n (fun i -> float (fun () -> Printf.sprintf "s[%d]" i) a.s.(i) b.s.(i))
    in
    each 0 (n * n) (fun k ->
        let i = k / n and j = k mod n in
        float
          (fun () -> Printf.sprintf "q[%d][%d]" i j)
          (Util.Mat.get a.q i j) (Util.Mat.get b.q i j))

type keyed = (string * Aggregates.Spec.result) list

let show_key key =
  "{" ^ String.concat "; " (List.map (fun (attr, v) -> attr ^ "=" ^ show v) key) ^ "}"

let key_equal =
  List.equal (fun (attr, v) (attr', v') -> String.equal attr attr' && value_equal v v')

let rec rows id j ra rb =
  match (ra, rb) with
  | [], [] -> Ok ()
  | (k, _) :: _, [] -> fail "id %S: extra row %s" id (show_key k)
  | [], (k, _) :: _ -> fail "id %S: missing row %s" id (show_key k)
  | (k, v) :: ra, (k', v') :: rb ->
      if not (key_equal k k') then
        fail "id %S row %d: key %s vs %s" id j (show_key k) (show_key k')
      else
        let* () = float (fun () -> Printf.sprintf "id %S %s" id (show_key k)) v v' in
        rows id (j + 1) ra rb

let keyed a b =
  let rec go ra rb =
    match (ra, rb) with
    | [], [] -> Ok ()
    | (id, _) :: _, [] -> fail "extra id %S" id
    | [], (id, _) :: _ -> fail "missing id %S" id
    | (id, ga) :: ra, (id', gb) :: rb ->
        if String.equal id id' then
          let* () = rows id 0 ga gb in
          go ra rb
        else if not (List.mem_assoc id b) then fail "extra id %S" id
        else if not (List.mem_assoc id' a) then fail "missing id %S" id'
        else fail "id %S where the reference has %S (order differs)" id id'
  in
  go a b

let compare_key =
  List.compare (fun (attr, v) (attr', v') ->
      match String.compare attr attr' with 0 -> Value.compare v v' | c -> c)

let canonical rs =
  List.stable_sort (fun (i, _) (j, _) -> String.compare i j) rs
  |> List.map (fun (id, rows) ->
         (id, List.stable_sort (fun (k, _) (k', _) -> compare_key k k') rows))

let packed a b =
  let bytes p =
    let buf = Buffer.create 256 in
    Ml.Model_intf.encode_packed buf p;
    Buffer.contents buf
  in
  let x = bytes a and y = bytes b in
  let common = Int.min (String.length x) (String.length y) in
  let rec go i =
    if i < common && x.[i] = y.[i] then go (i + 1)
    else if i < common then
      fail "%s byte %d: 0x%02x vs 0x%02x" (Ml.Model_intf.packed_name a) i
        (Char.code x.[i]) (Char.code y.[i])
    else if String.length x = String.length y then Ok ()
    else fail "%s: %d vs %d bytes" (Ml.Model_intf.packed_name a) (String.length x)
        (String.length y)
  in
  go 0
