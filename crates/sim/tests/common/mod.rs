//! The fault plans the stepping-equivalence tests cross with every point.

use faults::FaultPlan;

/// Fault plans crossed with every point on `channels` channels: none, NACK
/// storms, busy banks with controller stalls, and one channel-chaos plan,
/// whose channel-1 outage joins only when there is a channel 1.
pub fn plans(channels: usize) -> Vec<(Option<FaultPlan>, Option<FaultPlan>)> {
    let plan = |spec: &str| Some(FaultPlan::parse(spec).expect("valid plan"));
    let outage = if channels > 1 {
        ";outage:1:200:300"
    } else {
        ""
    };
    vec![
        (None, None),
        (plan("nack:50:8"), None),
        (plan("busy:*:256:16;stall:1024:32"), None),
        (
            None,
            plan(&format!("brownout:0:64:512:3{outage};devfail:0:0:400:2")),
        ),
    ]
}
