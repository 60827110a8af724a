type 'a array = 'a Sched_atomic.t Stdlib.Array.t

module Array = struct
  let make n v = Stdlib.Array.init n (fun _ -> Sched_atomic.make v)
  let length = Stdlib.Array.length
  let get a i = Sched_atomic.get a.(i)
  let set a i v = Sched_atomic.set a.(i) v
  let unsafe_get a i = Sched_atomic.get (Stdlib.Array.unsafe_get a i)
  let unsafe_set a i v = Sched_atomic.set (Stdlib.Array.unsafe_get a i) v
end
