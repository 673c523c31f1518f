//! Answer verification, run outside the timed windows.
//!
//! Every answer's result-id set must equal the one
//! [`lbq_serve::answer_on`] computes for its request. A tree-tier frame
//! must also equal, byte for byte, the encoding of that answer. Cache
//! and hot-tier answers are anchored at an earlier query, so only their
//! result sets are compared.

use crate::loadgen::Answer;
use lbq_core::LbqServer;
use lbq_proto::{encode_query_response, CacheTier};
use lbq_serve::{answer_on, QueryResp};
use std::sync::Arc;

/// Checks one answer against the on-line construction.
pub fn check(server: &LbqServer, a: &Answer) -> Result<(), String> {
    let expected = answer_on(server, &a.req);
    if expected.result_ids() != a.ids {
        return Err(format!(
            "request {} ({:?}, tier {:?}): result ids differ from answer_on",
            a.id, a.req, a.tier
        ));
    }
    if a.tier == CacheTier::Tree {
        let resp = QueryResp {
            answer: Arc::new(expected),
            from_cache: false,
            tier: CacheTier::Tree,
            worker: 0,
            latency_ns: 0,
            query_id: a.query_id,
            stages: Default::default(),
        };
        let mut bytes = Vec::new();
        encode_query_response(a.id, &resp, &mut bytes)
            .map_err(|e| format!("request {}: re-encoding failed: {e}", a.id))?;
        if a.frame.as_deref() != Some(&bytes[..]) {
            return Err(format!(
                "request {} ({:?}): tree-tier frame differs from encode_query_response",
                a.id, a.req
            ));
        }
    }
    Ok(())
}

/// Checks every answer on `threads` threads; the first mismatch wins.
pub fn check_all(server: &LbqServer, answers: &[Answer], threads: usize) -> Result<(), String> {
    let chunk = answers.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = answers
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().try_for_each(|a| check(server, a))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread panicked"))
            .collect::<Result<Vec<()>, String>>()
            .map(|_| ())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use lbq_geom::Point;
    use lbq_proto::{decode_frame, Decoded, Frame, DEFAULT_CLIENT_MAX_PAYLOAD};
    use lbq_rtree::{RTree, RTreeConfig};
    use lbq_serve::{Engine, EngineConfig, QueryReq};

    #[test]
    fn verifier_rejects_a_tampered_frame() {
        let data = Workload::ColdScatter.dataset(5_000);
        let server = Arc::new(LbqServer::new(
            RTree::bulk_load_packed(data.items, RTreeConfig::paper()),
            data.universe,
        ));
        let engine = Engine::new(Arc::clone(&server), EngineConfig::default());
        let req = QueryReq::knn(Point::new(0.31, 0.62), 10);
        let resp = engine.submit(vec![req]).remove(0);
        let mut frame = Vec::new();
        encode_query_response(5, &resp, &mut frame).expect("encodes");
        let Ok(Decoded::Frame {
            frame: Frame::KnnResponse(f),
            ..
        }) = decode_frame(&frame, DEFAULT_CLIENT_MAX_PAYLOAD)
        else {
            panic!("not a kNN response");
        };
        let mut ids: Vec<u64> = f.body.result.iter().map(|i| i.id).collect();
        ids.sort_unstable();
        let answer = Answer {
            id: 5,
            req,
            due_ns: 0,
            sent_ns: 0,
            recv_ns: 0,
            encode_ns: 0,
            decode_ns: 0,
            tier: f.tier,
            query_id: f.query_id,
            ids: ids.clone(),
            len: frame.len(),
            frame: Some(frame.clone()),
        };
        assert_eq!(answer.tier, CacheTier::Tree);
        check(&server, &answer).expect("an untouched frame verifies");

        // One flipped bit in the last validity coordinate.
        let mut tampered = answer.clone();
        let last = frame.len() - 1;
        tampered.frame.as_mut().expect("kept")[last] ^= 1;
        assert!(check(&server, &tampered).is_err());

        // A wrong result set is rejected on any tier.
        let mut wrong = answer.clone();
        wrong.tier = CacheTier::Cache;
        wrong.ids[0] = u64::MAX;
        assert!(check(&server, &wrong).is_err());
        assert!(check_all(&server, &[answer, wrong], 2).is_err());
    }
}
