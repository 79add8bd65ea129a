//! Case reads probe the interner and never insert: `GET
//! /v1/{tenant}/cases/{id}` with an id the process has never seen is a
//! 404 that leaves the global symbol table as it was, so a client that
//! can only read cannot grow the service's memory. (One test per binary:
//! the interner is process-wide, and a concurrent test would grow it.)

use bpmn::models::healthcare_treatment;
use cows::symbol::Symbol;
use policy::samples::{extended_hospital_policy, hospital_context, treatment};
use purpose_control::auditor::{Auditor, ProcessRegistry};
use serve::{client, ServeConfig, Server, TenantSpec};

#[test]
fn unknown_case_reads_do_not_intern_their_ids() {
    let mut registry = ProcessRegistry::new();
    registry.register(treatment(), healthcare_treatment());
    registry.add_case_prefix("HT-", treatment());
    let auditor = Auditor::new(registry, extended_hospital_policy(), hospital_context());
    let specs = vec![TenantSpec {
        name: "t1".to_string(),
        auditor,
    }];
    let server = Server::start(specs, ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let get = |id: &str| client::request(&addr, "GET", &format!("/v1/t1/cases/{id}"), "").unwrap();
    // One read first, so whatever the request path interns on first use
    // is in place before the count is taken.
    assert_eq!(get("warm-up-unknown-case").status, 404);
    let before = Symbol::interned_len();
    for i in 0..1_000 {
        let id = format!("never-seen-case-{i}");
        let response = get(&id);
        assert_eq!(response.status, 404, "{}", response.body);
        assert!(Symbol::lookup(&id).is_none());
    }
    assert_eq!(Symbol::interned_len(), before);
    server.shutdown().unwrap();
}
