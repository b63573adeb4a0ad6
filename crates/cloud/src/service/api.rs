//! The authenticated REST surface: functions, endpoint registration and
//! visibility, agent connect/disconnect.

use std::collections::HashSet;

use gcx_auth::{AuthPolicy, Token};
use gcx_core::codec;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::function::{FunctionBody, FunctionRecord};
use gcx_core::ids::{EndpointId, FunctionId};
use gcx_mq::Consumer;

use super::{mep_queue_name, task_queue_name, EndpointSession, WebService, DEAD_TASKS_QUEUE};
use crate::records::{EndpointRecord, EndpointRegistration};

impl WebService {
    // ---- functions -------------------------------------------------------

    /// Register a function; returns its immutable id.
    pub fn register_function(&self, token: &Token, body: FunctionBody) -> GcxResult<FunctionId> {
        let who = self.authenticate(token)?;
        let encoded = codec::encode(&body.to_value());
        if encoded.len() > self.inner.cfg.payload_limit {
            return Err(GcxError::PayloadTooLarge {
                size: encoded.len(),
                limit: self.inner.cfg.payload_limit,
            });
        }
        self.meter_api(encoded.len(), 36);
        let record = FunctionRecord {
            id: FunctionId::random(),
            owner: who.identity.id,
            body,
            registered_at: self.inner.clock.now_ms(),
        };
        let id = record.id;
        self.inner.functions.insert(id, record);
        Ok(id)
    }

    /// Fetch a registered function (functions are public-by-id, as in the
    /// production service where the UUID is the capability).
    pub fn get_function(&self, token: &Token, id: FunctionId) -> GcxResult<FunctionRecord> {
        self.authenticate(token)?;
        self.meter_api(36, 128);
        self.inner
            .functions
            .get_cloned(&id)
            .ok_or(GcxError::FunctionNotFound(id))
    }

    // ---- endpoints -------------------------------------------------------

    /// Register an endpoint. For multi-user endpoints a command queue is
    /// also created (the channel of Fig. 1 step 2).
    pub fn register_endpoint(
        &self,
        token: &Token,
        name: &str,
        multi_user: bool,
        policy: AuthPolicy,
        allowed_functions: Option<Vec<FunctionId>>,
    ) -> GcxResult<EndpointRegistration> {
        let who = self.authenticate(token)?;
        self.meter_api(name.len() + 64, 128);
        let id = EndpointId::random();
        let credential = format!("epcred-{}", gcx_core::ids::Uuid::new_v4());
        self.inner
            .broker
            .declare_queue(&task_queue_name(id), Some(&credential))?;
        self.apply_task_queue_policy(id)?;
        if multi_user {
            self.inner
                .broker
                .declare_queue(&mep_queue_name(id), Some(&credential))?;
        }
        self.inner.endpoints.insert(
            id,
            EndpointRecord {
                id,
                owner: who.identity.id,
                name: name.to_string(),
                multi_user,
                parent_mep: None,
                allowed_functions,
                policy,
                registered_at: self.inner.clock.now_ms(),
                connected: false,
                last_heartbeat_ms: 0,
                degraded: false,
            },
        );
        self.inner.credentials.insert(id, credential.clone());
        Ok(EndpointRegistration {
            endpoint_id: id,
            queue_credential: credential,
        })
    }

    /// List the caller's endpoints: those they registered plus user
    /// endpoints spawned under their multi-user endpoints — the visibility
    /// §IV gives administrators ("administrators have no visibility into
    /// the use of their resources" without it).
    pub fn list_endpoints(&self, token: &Token) -> GcxResult<Vec<EndpointRecord>> {
        let who = self.authenticate(token)?;
        self.meter_api(36, 256);
        let me = who.identity.id;
        let mut mine: HashSet<EndpointId> = HashSet::new();
        self.inner.endpoints.for_each(|_, r| {
            if r.owner == me {
                mine.insert(r.id);
            }
        });
        let mut out = self.inner.endpoints.collect_values(|_, r| {
            r.owner == me || r.parent_mep.map(|m| mine.contains(&m)).unwrap_or(false)
        });
        out.sort_by_key(|r| (r.registered_at, r.id.to_string()));
        Ok(out)
    }

    /// Live status of an endpoint: connectivity plus task-queue depth.
    /// Visible to the endpoint's owner and, for spawned user endpoints, the
    /// owning MEP's administrator.
    pub fn endpoint_status(
        &self,
        token: &Token,
        id: EndpointId,
    ) -> GcxResult<(EndpointRecord, usize)> {
        let who = self.authenticate(token)?;
        self.meter_api(36, 64);
        let record = self.endpoint_record(id)?;
        let authorized = record.owner == who.identity.id
            || record
                .parent_mep
                .and_then(|m| self.inner.endpoints.with(&m, |r| r.map(|r| r.owner)))
                .map(|admin| admin == who.identity.id)
                .unwrap_or(false);
        if !authorized {
            return Err(GcxError::Forbidden("not your endpoint".into()));
        }
        let depth = self
            .inner
            .broker
            .queue_stats(&task_queue_name(id))
            .map(|s| s.ready)
            .unwrap_or(0);
        Ok((record, depth))
    }

    /// Endpoint record lookup (public metadata).
    pub fn endpoint_record(&self, id: EndpointId) -> GcxResult<EndpointRecord> {
        self.inner
            .endpoints
            .get_cloned(&id)
            .ok_or(GcxError::EndpointNotFound(id))
    }

    /// Agent-side connect: open a session on the endpoint's queues.
    pub fn connect_endpoint(
        &self,
        endpoint_id: EndpointId,
        credential: &str,
    ) -> GcxResult<EndpointSession> {
        self.inner.credentials.with(&endpoint_id, |c| match c {
            Some(c) if c == credential => Ok(()),
            Some(_) => Err(GcxError::Forbidden(format!(
                "bad credential for endpoint {endpoint_id}"
            ))),
            None => Err(GcxError::EndpointNotFound(endpoint_id)),
        })?;
        let consumer =
            self.inner
                .broker
                .consume(&task_queue_name(endpoint_id), Some(credential), 0)?;
        let now = self.inner.clock.now_ms();
        self.inner.endpoints.update(&endpoint_id, |rec| {
            if let Some(rec) = rec {
                rec.connected = true;
                rec.last_heartbeat_ms = now;
            }
        });
        self.inner.spawn_pending.write().remove(&endpoint_id);
        Ok(EndpointSession::new(self.clone(), endpoint_id, consumer))
    }

    /// Agent-side: consume the MEP command queue (start-endpoint requests).
    pub fn connect_mep_commands(
        &self,
        endpoint_id: EndpointId,
        credential: &str,
    ) -> GcxResult<Consumer> {
        self.inner
            .broker
            .consume(&mep_queue_name(endpoint_id), Some(credential), 0)
    }

    /// Mark an endpoint disconnected (agent stopped).
    pub fn disconnect_endpoint(&self, endpoint_id: EndpointId) {
        self.inner.endpoints.update(&endpoint_id, |rec| {
            if let Some(rec) = rec {
                rec.connected = false;
            }
        });
    }

    /// Give every endpoint task queue the service-wide delivery budget, with
    /// exhausted deliveries routed to [`DEAD_TASKS_QUEUE`], plus the
    /// configured depth/byte bounds (0 = unbounded, the default). Bounded
    /// queues reject new publishes with a typed [`GcxError::QueueFull`]
    /// rather than growing without limit under overload.
    pub(super) fn apply_task_queue_policy(&self, id: EndpointId) -> GcxResult<()> {
        let mut policy =
            gcx_mq::QueuePolicy::dead_letter(self.inner.cfg.max_task_deliveries, DEAD_TASKS_QUEUE);
        policy.max_depth = self.inner.cfg.task_queue_depth;
        policy.max_bytes = self.inner.cfg.task_queue_bytes;
        self.inner
            .broker
            .set_queue_policy(&task_queue_name(id), policy)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{login, service};
    use super::*;
    use gcx_core::clock::SystemClock;
    use gcx_core::task::TaskSpec;
    use gcx_core::value::Value;

    #[test]
    fn register_and_fetch_function() {
        let svc = service();
        let token = login(&svc, "a@b.c");
        let id = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let rec = svc.get_function(&token, id).unwrap();
        assert!(matches!(rec.body, FunctionBody::PyFn { .. }));
        assert!(svc.get_function(&token, FunctionId::random()).is_err());
        svc.shutdown();
    }

    #[test]
    fn api_requires_valid_token() {
        let svc = service();
        let e = svc
            .register_function(&Token("bogus".into()), FunctionBody::pyfn("x"))
            .unwrap_err();
        assert!(matches!(e, GcxError::Unauthenticated(_)));
        svc.shutdown();
    }

    #[test]
    fn list_endpoints_shows_own_and_spawned() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, admin) = svc.auth().login("admin@site.edu").unwrap();
        let (user_identity, user) = svc.auth().login("user@site.edu").unwrap();
        let mep = svc
            .register_endpoint(&admin, "mep", true, AuthPolicy::open(), None)
            .unwrap();
        let own = svc
            .register_endpoint(&admin, "personal", false, AuthPolicy::open(), None)
            .unwrap();

        // Spawn a UEP under the MEP by submitting a user task.
        let fid = svc
            .register_function(&user, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let mut spec = TaskSpec::new(fid, mep.endpoint_id);
        spec.user_endpoint_config = Value::map([("W", Value::Int(1))]);
        svc.submit_task(&user, spec).unwrap();

        let admin_view = svc.list_endpoints(&admin).unwrap();
        let ids: Vec<EndpointId> = admin_view.iter().map(|r| r.id).collect();
        assert!(ids.contains(&mep.endpoint_id));
        assert!(ids.contains(&own.endpoint_id));
        assert_eq!(admin_view.len(), 3, "MEP + personal + spawned UEP");
        let uep = admin_view.iter().find(|r| r.parent_mep.is_some()).unwrap();
        assert_eq!(uep.owner, user_identity.id, "UEP is owned by the user");

        // The user sees only their UEP.
        let user_view = svc.list_endpoints(&user).unwrap();
        assert_eq!(user_view.len(), 1);
        assert_eq!(user_view[0].parent_mep, Some(mep.endpoint_id));
        svc.shutdown();
    }

    #[test]
    fn endpoint_status_shows_queue_depth_and_enforces_ownership() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, owner) = svc.auth().login("owner@x.y").unwrap();
        let (_, other) = svc.auth().login("other@x.y").unwrap();
        let reg = svc
            .register_endpoint(&owner, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let fid = svc
            .register_function(&owner, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        for _ in 0..3 {
            svc.submit_task(&owner, TaskSpec::new(fid, reg.endpoint_id))
                .unwrap();
        }
        let (record, depth) = svc.endpoint_status(&owner, reg.endpoint_id).unwrap();
        assert!(!record.connected);
        assert_eq!(depth, 3, "three buffered tasks");
        assert!(matches!(
            svc.endpoint_status(&other, reg.endpoint_id),
            Err(GcxError::Forbidden(_))
        ));
        svc.shutdown();
    }
}
