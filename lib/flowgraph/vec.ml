type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 8) ~dummy () =
  { data = Array.make (max 8 capacity) dummy; len = 0; dummy }

let make n ~dummy x =
  let cap = max 8 n in
  let data = Array.make cap dummy in
  Array.fill data 0 n x;
  { data; len = n; dummy }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

(* Unchecked accessors for solver inner loops. Callers must prove
   [0 <= i < length v] by construction; see DESIGN.md "Memory discipline". *)
let unsafe_get v i = Array.unsafe_get v.data i
let unsafe_set v i x = Array.unsafe_set v.data i x
let unsafe_data v = v.data

let ensure_capacity v n =
  let cap = Array.length v.data in
  if n > cap then begin
    let cap' =
      let c = ref (max 8 cap) in
      while !c < n do
        c := !c * 2
      done;
      !c
    in
    let data' = Array.make cap' v.dummy in
    Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end

let push v x =
  ensure_capacity v (v.len + 1);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1;
  v.len - 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  let x = Array.unsafe_get v.data v.len in
  Array.unsafe_set v.data v.len v.dummy;
  x

let grow_to v n x =
  if n > v.len then begin
    ensure_capacity v n;
    Array.fill v.data v.len (n - v.len) x;
    v.len <- n
  end

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let is_empty v = v.len = 0

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let to_list v =
  let rec build i acc = if i < 0 then acc else build (i - 1) (v.data.(i) :: acc) in
  build (v.len - 1) []

let of_list ~dummy xs =
  let v = create ~dummy () in
  List.iter (fun x -> ignore (push v x)) xs;
  v

let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }

(* See vec_stubs.c: arrays of immediates hold no pointers, so they are
   copied with memmove instead of one write barrier per element. Typed at
   int and bool only, so no boxed value can reach the stub. *)
external blit_int : int array -> int -> int array -> int -> int -> unit
  = "fg_vec_blit_imm"
[@@noalloc]

external blit_bool : bool array -> int -> bool array -> int -> int -> unit
  = "fg_vec_blit_imm"
[@@noalloc]

let copy_into_with blit dst src =
  if dst != src then begin
    ensure_capacity dst src.len;
    blit src.data 0 dst.data 0 src.len;
    if dst.len > src.len then
      (* Shrink: unused backing slots hold [dummy]. *)
      Array.fill dst.data src.len (dst.len - src.len) dst.dummy;
    dst.len <- src.len
  end

let copy_into_int dst src = copy_into_with blit_int dst src
let copy_into_bool dst src = copy_into_with blit_bool dst src
