let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: empty";
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let minimum xs = List.fold_left Float.min infinity xs
let maximum xs = List.fold_left Float.max neg_infinity xs

let five_number xs =
  ( percentile xs 1.,
    percentile xs 25.,
    percentile xs 50.,
    percentile xs 75.,
    percentile xs 99. )

let cdf ?(points = 20) xs =
  if xs = [] then []
  else
    List.init (points + 1) (fun i ->
        let p = 100. *. float_of_int i /. float_of_int points in
        (percentile xs p, p /. 100.))

let pp_duration ppf s =
  if Float.abs s < 1e-3 then Format.fprintf ppf "%.0fµs" (s *. 1e6)
  else if Float.abs s < 1. then Format.fprintf ppf "%.1fms" (s *. 1e3)
  else Format.fprintf ppf "%.2fs" s

let row cells =
  List.iter (fun c -> Printf.printf "%-21s " c) cells;
  print_newline ()

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')
