(* A live job: its header, with the task array emptied so the record
   pins no task, and how many of its tasks are still live. *)
type job_entry = { header : Workload.job; mutable live : int }

type t = {
  topology : Topology.t;
  (* Live tasks and jobs only: a task leaves when it finishes, a job
     with its last live task, so both tables track the live cluster. *)
  tasks : (Types.task_id, Workload.task) Hashtbl.t;
  jobs : (Types.job_id, job_entry) Hashtbl.t;
  (* Waiting set plus an insertion-ordered list (lazily compacted). *)
  waiting : (Types.task_id, unit) Hashtbl.t;
  mutable waiting_order : Types.task_id list;  (* newest first *)
  running_on : (Types.task_id, unit) Hashtbl.t array;  (* per machine *)
  machine_live : bool array;
  mutable used_slots : int;
}

let create topology =
  let n = Topology.machine_count topology in
  {
    topology;
    tasks = Hashtbl.create 1024;
    jobs = Hashtbl.create 64;
    waiting = Hashtbl.create 1024;
    waiting_order = [];
    running_on = Array.init n (fun _ -> Hashtbl.create 8);
    machine_live = Array.make n true;
    used_slots = 0;
  }

let topology t = t.topology
let task_opt t tid = Hashtbl.find_opt t.tasks tid

let task t tid =
  match Hashtbl.find_opt t.tasks tid with
  | Some task -> task
  | None -> invalid_arg (Printf.sprintf "State.task: unknown task %d" tid)

let job_opt t jid = Option.map (fun e -> e.header) (Hashtbl.find_opt t.jobs jid)

let job t jid =
  match Hashtbl.find_opt t.jobs jid with
  | Some e -> e.header
  | None -> invalid_arg (Printf.sprintf "State.job: unknown job %d" jid)

let submit_job t (j : Workload.job) =
  if Hashtbl.mem t.jobs j.Workload.jid then
    invalid_arg (Printf.sprintf "State.submit_job: duplicate job %d" j.Workload.jid);
  let live = Array.length j.Workload.tasks in
  if live > 0 then
    Hashtbl.add t.jobs j.Workload.jid { header = { j with Workload.tasks = [||] }; live };
  Array.iter
    (fun (task : Workload.task) ->
      Hashtbl.add t.tasks task.Workload.tid task;
      Hashtbl.replace t.waiting task.Workload.tid ();
      t.waiting_order <- task.Workload.tid :: t.waiting_order)
    j.Workload.tasks

(* Drop a task that is neither waiting nor running, and its job with it
   if it was the job's last live task. *)
let retire t (task : Workload.task) =
  Hashtbl.remove t.tasks task.Workload.tid;
  match Hashtbl.find_opt t.jobs task.Workload.job with
  | Some e ->
      e.live <- e.live - 1;
      if e.live = 0 then Hashtbl.remove t.jobs task.Workload.job
  | None -> ()

let machine_is_live t m = t.machine_live.(m)
let running_count t m = Hashtbl.length t.running_on.(m)

let free_slots_on t m =
  if not t.machine_live.(m) then 0
  else (Topology.machine t.topology m).Topology.slots - running_count t m

let used_resources t m =
  Hashtbl.fold
    (fun tid () acc -> Resources.add acc (task t tid).Workload.request)
    t.running_on.(m) Resources.zero

let fits_on t m (tk : Workload.task) =
  free_slots_on t m > 0
  && Resources.fits ~request:tk.Workload.request
       ~available:
         (Resources.sub (Topology.machine t.topology m).Topology.capacity (used_resources t m))

let place t tid m ~now =
  if not t.machine_live.(m) then invalid_arg "State.place: dead machine";
  if free_slots_on t m <= 0 then
    invalid_arg (Printf.sprintf "State.place: machine %d has no free slot" m);
  let task = task t tid in
  Workload.start task ~machine:m ~now;
  Hashtbl.remove t.waiting tid;
  Hashtbl.replace t.running_on.(m) tid ();
  t.used_slots <- t.used_slots + 1

let preempt t tid =
  let task = task t tid in
  match Workload.machine_of task with
  | None -> invalid_arg "State.preempt: task not running"
  | Some m ->
      Workload.preempt task;
      Hashtbl.remove t.running_on.(m) tid;
      Hashtbl.replace t.waiting tid ();
      t.waiting_order <- tid :: t.waiting_order;
      t.used_slots <- t.used_slots - 1

let finish t tid ~now =
  let task = task t tid in
  match Workload.machine_of task with
  | None -> invalid_arg "State.finish: task not running"
  | Some m ->
      Workload.finish task ~now;
      Hashtbl.remove t.running_on.(m) tid;
      t.used_slots <- t.used_slots - 1;
      retire t task

let fail_machine t m =
  if not t.machine_live.(m) then []
  else begin
    let victims = Hashtbl.fold (fun tid () acc -> tid :: acc) t.running_on.(m) [] in
    List.iter (fun tid -> preempt t tid) victims;
    t.machine_live.(m) <- false;
    victims
  end

let restore_machine t m = t.machine_live.(m) <- true

let waiting_tasks t =
  (* Compact the order list (drop ids no longer waiting, dedup re-entries
     keeping the oldest position), oldest first. The compacted order is
     stored back, so the walk is O(currently waiting + appended since the
     last call) — without the write-back the list is an append-only
     history of every task that ever waited, and a per-round caller (the
     policy refresh) pays an ever-growing O(lifetime submissions) walk. *)
  let ordered = List.rev t.waiting_order in
  let seen = Hashtbl.create (Hashtbl.length t.waiting) in
  let live =
    List.filter
      (fun tid ->
        if Hashtbl.mem t.waiting tid && not (Hashtbl.mem seen tid) then begin
          Hashtbl.add seen tid ();
          true
        end
        else false)
      ordered
  in
  t.waiting_order <- List.rev live;
  List.map (fun tid -> task t tid) live

let waiting_count t = Hashtbl.length t.waiting

let running_tasks_on t m = Hashtbl.fold (fun tid () acc -> tid :: acc) t.running_on.(m) []

let live_task_count t = Hashtbl.length t.tasks

let utilization t =
  let live_slots = ref 0 in
  Topology.iter_machines t.topology (fun m ->
      if t.machine_live.(m.Topology.id) then live_slots := !live_slots + m.Topology.slots);
  if !live_slots = 0 then 1. else float_of_int t.used_slots /. float_of_int !live_slots

let iter_tasks t f = Hashtbl.iter (fun _ task -> f task) t.tasks
let iter_jobs t f = Hashtbl.iter (fun _ e -> f e.header) t.jobs

(* Snapshot restore: a task recorded as finished in an image written
   before finished tasks were left out is resubmitted waiting and then
   retired here, with no machine transit. *)
let restore_finished t tid ~response_time =
  let task = task t tid in
  if not (Workload.is_waiting task) then
    invalid_arg (Printf.sprintf "State.restore_finished: task %d is not waiting" tid);
  task.Workload.state <- Types.Finished { response_time };
  Hashtbl.remove t.waiting tid;
  retire t task
