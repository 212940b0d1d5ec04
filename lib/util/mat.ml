(* Dense row-major matrices over floats, with just enough linear algebra for
   the in-database learning tasks: Cholesky factorisation for closed-form
   ridge regression, power iteration for PCA, and the covariance-ring
   operations. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let copy m = { m with data = Array.copy m.data }

let data m = m.data

let rows m = m.rows
let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x
let update m i j f =
  let k = (i * m.cols) + j in
  m.data.(k) <- f m.data.(k)

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  init rows cols (fun i j -> a.(i).(j))

let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let row m i = Array.sub m.data (i * m.cols) m.cols

let map f m = { m with data = Array.map f m.data }

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.add: shape mismatch";
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.sub: shape mismatch";
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale k m = map (fun x -> k *. x) m

let add_in_place a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.add_in_place: shape mismatch";
  for k = 0 to Array.length a.data - 1 do
    a.data.(k) <- a.data.(k) +. b.data.(k)
  done

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: shape mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. get b k j)
        done
    done
  done;
  c

let matvec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.matvec: shape mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (get m i j *. v.(j))
      done;
      !acc)

(* Rank-1 update: m <- m + alpha * x * y^T. The workhorse of covariance
   accumulation. *)
let ger ~alpha x y m =
  for i = 0 to m.rows - 1 do
    let axi = alpha *. x.(i) in
    if axi <> 0.0 then
      for j = 0 to m.cols - 1 do
        m.data.((i * m.cols) + j) <- m.data.((i * m.cols) + j) +. (axi *. y.(j))
      done
  done

exception Not_positive_definite

(* Cholesky factorisation A = L L^T of a symmetric positive-definite matrix;
   returns the lower-triangular factor. *)
let cholesky a =
  if a.rows <> a.cols then invalid_arg "Mat.cholesky: not square";
  let n = a.rows in
  let l = create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !s <= 0.0 then raise Not_positive_definite;
        set l i j (sqrt !s)
      end
      else set l i j (!s /. get l j j)
    done
  done;
  l

(* Solve A x = b for symmetric positive-definite A via Cholesky. *)
let solve_spd a b =
  let n = a.rows in
  if Array.length b <> n then invalid_arg "Mat.solve_spd: shape mismatch";
  let l = cholesky a in
  (* forward substitution: L y = b *)
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for k = 0 to i - 1 do
      s := !s -. (get l i k *. y.(k))
    done;
    y.(i) <- !s /. get l i i
  done;
  (* backward substitution: L^T x = y *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (get l k i *. x.(k))
    done;
    x.(i) <- !s /. get l i i
  done;
  x

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && (let ok = ref true in
      Array.iteri
        (fun k x -> if Float.abs (x -. b.data.(k)) > eps then ok := false)
        a.data;
      !ok)

let is_symmetric ?(eps = 1e-9) m =
  m.rows = m.cols
  && (let ok = ref true in
      for i = 0 to m.rows - 1 do
        for j = i + 1 to m.cols - 1 do
          if Float.abs (get m i j -. get m j i) > eps then ok := false
        done
      done;
      !ok)

(* Dominant eigenpair by power iteration; used by PCA. *)
let power_iteration ?(iters = 200) ?(eps = 1e-10) m seed_vec =
  if m.rows <> m.cols then invalid_arg "Mat.power_iteration: not square";
  let v = ref (Vec.copy seed_vec) in
  let normalise u =
    let n = Vec.norm2 u in
    if n > 0.0 then Vec.scale (1.0 /. n) u else u
  in
  v := normalise !v;
  let lambda = ref 0.0 in
  (try
     for _ = 1 to iters do
       let w = matvec m !v in
       let l = Vec.dot w !v in
       let w = normalise w in
       if Float.abs (l -. !lambda) < eps then begin
         lambda := l;
         v := w;
         raise Exit
       end;
       lambda := l;
       v := w
     done
   with Exit -> ());
  (!lambda, !v)

let pp ppf m =
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "|";
    for j = 0 to m.cols - 1 do
      Format.fprintf ppf " %8.4g" (get m i j)
    done;
    Format.fprintf ppf " |@\n"
  done
