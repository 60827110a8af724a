type t = bool Sched_atomic.t

let create () = Sched_atomic.make false
let lock m = ignore (Sched_atomic.update_when m not (fun _ -> true))
let unlock m = if not (Sched_atomic.exchange m false) then failwith "Sched_mutex.unlock: not locked"
