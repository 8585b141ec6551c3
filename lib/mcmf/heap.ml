type t = {
  mutable elts : int array; (* heap order *)
  mutable prios : int array;
  mutable pos : int array; (* elt -> index in elts, -1 if absent *)
  mutable size : int;
}

let create ~capacity =
  {
    elts = Array.make (max 1 capacity) (-1);
    prios = Array.make (max 1 capacity) 0;
    pos = Array.make (max 1 capacity) (-1);
    size = 0;
  }

let is_empty h = h.size = 0
let size h = h.size
let mem h e = e < Array.length h.pos && h.pos.(e) >= 0

let ensure h e =
  let n = Array.length h.pos in
  if e >= n then begin
    let n' = max (e + 1) (2 * n) in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    h.elts <- grow h.elts (-1);
    h.prios <- grow h.prios 0;
    h.pos <- grow h.pos (-1)
  end

let swap h i j =
  let ei = h.elts.(i) and ej = h.elts.(j) in
  let pi = h.prios.(i) and pj = h.prios.(j) in
  h.elts.(i) <- ej;
  h.elts.(j) <- ei;
  h.prios.(i) <- pj;
  h.prios.(j) <- pi;
  h.pos.(ej) <- i;
  h.pos.(ei) <- j

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if h.prios.(p) > h.prios.(i) then begin
      swap h p i;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < h.size && h.prios.(l) < h.prios.(!m) then m := l;
  if r < h.size && h.prios.(r) < h.prios.(!m) then m := r;
  if !m <> i then begin
    swap h i !m;
    sift_down h !m
  end

let insert h e prio =
  ensure h e;
  let i = h.pos.(e) in
  if i < 0 then begin
    let i = h.size in
    h.size <- h.size + 1;
    h.elts.(i) <- e;
    h.prios.(i) <- prio;
    h.pos.(e) <- i;
    sift_up h i
  end
  else if prio < h.prios.(i) then begin
    h.prios.(i) <- prio;
    sift_up h i
  end

let min_prio h =
  if h.size = 0 then invalid_arg "Heap.min_prio: empty";
  h.prios.(0)

let min_elt h =
  if h.size = 0 then invalid_arg "Heap.min_elt: empty";
  h.elts.(0)

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty";
  let e = h.elts.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.elts.(0) <- h.elts.(h.size);
    h.prios.(0) <- h.prios.(h.size);
    h.pos.(h.elts.(0)) <- 0
  end;
  h.pos.(e) <- -1;
  h.elts.(h.size) <- -1;
  if h.size > 0 then sift_down h 0;
  e

let clear h =
  for i = 0 to h.size - 1 do
    h.pos.(h.elts.(i)) <- -1;
    h.elts.(i) <- -1
  done;
  h.size <- 0
