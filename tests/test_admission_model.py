"""Model-based check of the indexed fair-share admission controller.

:class:`AdmissionController` keeps an index of eligible tenants instead
of rescanning every queue per admission.  This Hypothesis state machine
drives it and a small reference model — the plain sorted scan plus
``min`` — through the same random operations (enqueue, drain, release,
resume-time ``note_in_flight``, spec re-registration with a changed
quota or weight, zero and negative weights, roster reload) and asserts
that both choose the same tenant with the same ``passed_over`` set, and
agree on queue lengths and in-flight counts after every step.
"""

from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.tenancy import AdmissionController, TenantRegistry, TenantSpec
from repro.errors import ExperimentError
from repro.workloads.base import synthetic_workload

TENANTS = ("t-a", "t-b", "t-c", "t-d", "t-e")


class ReferenceAdmission:
    """Start-time weighted fair queuing by full sorted scan."""

    def __init__(self):
        self.specs, self.queues, self.in_flight, self.virtual = {}, {}, {}, {}
        self.global_virtual = 0.0

    def enqueue(self, tenant_id, workload_id):
        spec, queue = self.specs[tenant_id], self.queues.setdefault(tenant_id, deque())
        if spec.max_pending and len(queue) >= spec.max_pending:
            return False
        if not queue:
            self.virtual[tenant_id] = max(self.virtual.get(tenant_id, 0.0), self.global_virtual)
        queue.append(workload_id)
        return True

    def eligible(self):
        return [
            t for t in sorted(self.queues) if self.queues[t] and not (
                self.specs[t].max_in_flight
                and self.in_flight.get(t, 0) >= self.specs[t].max_in_flight)
        ]

    def drain(self):
        admitted = []
        while self.eligible():
            eligible = self.eligible()
            chosen = min(eligible, key=lambda t: (self.virtual[t], t))
            self.in_flight[chosen] = self.in_flight.get(chosen, 0) + 1
            self.virtual[chosen] += 1.0 / self.specs[chosen].effective_weight
            self.global_virtual = self.virtual[chosen]
            workload_id = self.queues[chosen].popleft()
            admitted.append((chosen, workload_id, tuple(t for t in eligible if t != chosen)))
        return admitted


class _RosterStore:
    """The two tenants-table calls :class:`TenantRegistry` makes."""

    def __init__(self):
        self.rows = {}

    def save_tenant(self, item):
        self.rows[item["tenant_id"]] = dict(item)

    def tenant_items(self):
        return [dict(row) for row in self.rows.values()]


class AdmissionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.registry = TenantRegistry(_RosterStore())
        self.admission = AdmissionController(self.registry)
        self.model = ReferenceAdmission()
        self.submitted = 0

    @rule(
        tenant_id=st.sampled_from(TENANTS),
        weight=st.sampled_from((-1.0, 0.0, 0.25, 1.0, 2.0, 3.5)),
        quota=st.integers(min_value=0, max_value=3),
        pending=st.integers(min_value=0, max_value=4),
    )
    def register(self, tenant_id, weight, quota, pending):
        spec = TenantSpec(
            tenant_id=tenant_id, weight=weight, max_in_flight=quota, max_pending=pending
        )
        self.registry.register(spec)
        self.model.specs[tenant_id] = spec

    @rule(tenant_id=st.sampled_from(TENANTS))
    def enqueue(self, tenant_id):
        workload_id = f"wl-{self.submitted}"
        self.submitted += 1
        workload = synthetic_workload(workload_id, duration_hours=1.0, n_segments=1)
        if tenant_id not in self.model.specs:
            try:
                self.admission.enqueue(tenant_id, workload)
            except ExperimentError:
                return
            raise AssertionError(f"unregistered {tenant_id} was queued")
        assert self.admission.enqueue(tenant_id, workload) == self.model.enqueue(
            tenant_id, workload_id
        )

    @rule()
    def drain(self):
        got = [
            (a.tenant_id, a.workload.workload_id, a.passed_over)
            for a in self.admission.drain()
        ]
        assert got == self.model.drain()

    @rule(tenant_id=st.sampled_from(TENANTS))
    def release(self, tenant_id):
        self.admission.release(tenant_id)
        self.model.in_flight[tenant_id] = max(0, self.model.in_flight.get(tenant_id, 0) - 1)

    @rule(tenant_id=st.sampled_from(TENANTS), count=st.integers(min_value=1, max_value=3))
    def resume_in_flight(self, tenant_id, count):
        self.admission.note_in_flight(tenant_id, count)
        self.model.in_flight[tenant_id] = self.model.in_flight.get(tenant_id, 0) + count

    @rule()
    def reload_roster(self):
        self.registry.reload()

    @invariant()
    def counts_match(self):
        total = 0
        for tenant_id in TENANTS:
            queued = len(self.model.queues.get(tenant_id, ()))
            total += queued
            assert self.admission.queued_count(tenant_id) == queued
            assert self.admission.in_flight(tenant_id) == self.model.in_flight.get(tenant_id, 0)
        assert self.admission.queued_count() == total


AdmissionMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestAdmissionModel = AdmissionMachine.TestCase
