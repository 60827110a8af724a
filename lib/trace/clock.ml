external now : unit -> int = "abp_clock_monotonic_ns" [@@noalloc]
external sleep_until : int -> unit = "abp_clock_sleep_until"
external yield_cpu : unit -> unit = "abp_clock_yield_cpu"

let ns_per_s = 1_000_000_000
let to_s ns = float_of_int ns /. 1e9
let of_s s = int_of_float (s *. 1e9)
let to_ms ns = float_of_int ns /. 1e6
