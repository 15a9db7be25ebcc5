(* Dense row-major matrices. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative size";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let rows m = m.rows
let cols m = m.cols
let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v
let copy m = { m with data = Array.copy m.data }
let storage m = m.data

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let matvec m x y =
  if Array.length x <> m.cols || Array.length y <> m.rows then
    invalid_arg "Matrix.matvec: size";
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get m.data (base + j) *. Array.unsafe_get x j)
    done;
    y.(i) <- !acc
  done

(* Transposed product y = m^T x, without materialising the transpose. *)
let matvec_t m x y =
  if Array.length x <> m.rows || Array.length y <> m.cols then
    invalid_arg "Matrix.matvec_t: size";
  Array.fill y 0 m.cols 0.0;
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if not (Float.equal xi 0.0) then begin
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        Array.unsafe_set y j
          (Array.unsafe_get y j
          +. (xi *. Array.unsafe_get m.data (base + j)))
      done
    end
  done

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.matmul: size";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if not (Float.equal aik 0.0) then begin
        let cbase = i * c.cols and bbase = k * b.cols in
        for j = 0 to b.cols - 1 do
          Array.unsafe_set c.data (cbase + j)
            (Array.unsafe_get c.data (cbase + j)
            +. (aik *. Array.unsafe_get b.data (bbase + j)))
        done
      end
    done
  done;
  c
