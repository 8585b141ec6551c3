type timed = { due : float; ev : Churn.event }

let on_wire = function
  | Churn.Submit _ | Churn.Finish _ | Churn.Preempt _ | Churn.Fail_machine _
  | Churn.Restore_machine _ ->
      true
  | Churn.Perturb_costs _ | Churn.Round _ -> false

let wire_events trace = List.filter on_wire trace

let weight = function Churn.Submit { tasks; _ } -> max 1 tasks | _ -> 1

let schedule ~rate trace =
  if rate <= 0. then invalid_arg "Firehose.schedule: rate must be positive";
  let cum = ref 0 in
  List.map
    (fun ev ->
      let due = float_of_int !cum /. rate in
      cum := !cum + weight ev;
      { due; ev })
    (wire_events trace)

let shard ~shards evs =
  if shards < 1 then invalid_arg "Firehose.shard: shards must be >= 1";
  let out = Array.make shards [] in
  List.iteri (fun i tv -> out.(i mod shards) <- tv :: out.(i mod shards)) evs;
  Array.map List.rev out
