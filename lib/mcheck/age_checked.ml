include Abp_deque.Age

let width = ref Abp_deque.Bounded_tag.max_width
let bump_tag t = pack ~tag:(Abp_deque.Bounded_tag.succ ~width:!width (tag t)) ~top:0
