type kind =
  | Spawn
  | Steal
  | Execute
  | Idle
  | Yield
  | Park
  | Inject
  | Cross
  | Suspend
  | Resume
  | Fiber

type t = { kind : kind; worker : int; time : float; arg : int }

let kind_name = function
  | Spawn -> "spawn"
  | Steal -> "steal"
  | Execute -> "execute"
  | Idle -> "idle"
  | Yield -> "yield"
  | Park -> "park"
  | Inject -> "inject"
  | Cross -> "cross"
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Fiber -> "fiber"

let pp ppf e =
  Fmt.pf ppf "[%g] w%d %s%s" e.time e.worker (kind_name e.kind)
    (if e.arg >= 0 then Printf.sprintf "(%d)" e.arg else "")
