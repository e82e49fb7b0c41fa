#!/usr/bin/env python3
"""DAG-aware placement: schedule Galaxy workflow *steps*, not workloads.

An EuPathGalaxy-style amplicon study — one shared prep step fanning
out into eight per-sample pipelines that meet again in a summary
report — is compiled into a step DAG and run by the fleet controller:

* independent sample steps run **concurrently on separate spot
  instances**, each placed by the same batched Algorithm-1 round a
  whole fleet launch uses;
* every cross-stage edge ships the producer's output bytes, so a
  consumer placed outside its producer's region pays the S3
  cross-region rate (and re-pays it if a migration moves the step);
* an interrupted step is rescheduled alone — the rest of the DAG keeps
  running where it is;
* the per-step causal chain (`spotverse obs explain <dag id>`) shows
  which decision placed which steps and how big the ready set was.

Run:
    python examples/dag_workflow.py
"""

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.dag import compile_workflow
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.galaxy.workflow import StepInput, Workflow, WorkflowStep
from repro.obs import render_explanation
from repro.sim.clock import HOUR

N_SAMPLES = 8
GiB = 1024**3


def build_amplicon_workflow() -> Workflow:
    """Shared trim -> per-sample QC/denoise chains -> aggregate report."""
    steps = [WorkflowStep("trim", "cutadapt", duration=0.5 * HOUR)]
    for i in range(N_SAMPLES):
        steps.append(
            WorkflowStep(
                f"qc-{i}",
                "fastqc",
                inputs={"reads": StepInput("trim", "out")},
                duration=0.5 * HOUR,
            )
        )
        steps.append(
            WorkflowStep(
                f"denoise-{i}",
                "demux",
                inputs={"reads": StepInput(f"qc-{i}", "out")},
                duration=1.5 * HOUR,
            )
        )
    steps.append(
        WorkflowStep(
            "report",
            "multiqc",
            inputs={
                f"sample{i}": StepInput(f"denoise-{i}", "out")
                for i in range(N_SAMPLES)
            },
            duration=0.5 * HOUR,
        )
    )
    return Workflow("amplicon-study", steps)


def main() -> None:
    workflow = build_amplicon_workflow()
    # Each qc-i -> denoise-i pair condenses into one stage (they can
    # never run concurrently), so the DAG schedules 10 placement units
    # for the 18 steps.
    dag = compile_workflow(workflow, "study1", output_bytes=2 * GiB)
    print(f"{workflow.name}: {len(workflow)} steps -> {dag.n_stages} stages")
    for stage in dag.workloads:
        deps = f"  after {list(stage.deps)}" if stage.deps else ""
        print(f"  {stage.workload_id:20s} steps={list(stage.step_labels)}{deps}")

    provider = CloudProvider(seed=11)
    provider.warmup_markets(24)
    config = SpotVerseConfig(instance_type="m5.xlarge")
    monitor = Monitor(provider, [config.instance_type],
                      collect_interval=config.collect_interval)
    controller = FleetController(
        provider, SpotVerseOptimizer(monitor, config), config, monitor=monitor
    )

    # A DAG is submitted as its stage workloads, through the same
    # entry point as any fleet.
    result = controller.run(dag.workloads, max_hours=48.0)

    serial_hours = dag.serial_duration() / HOUR
    print(f"\nserial makespan : {serial_hours:.2f} h (one instance)")
    print(f"DAG makespan    : {result.makespan_hours:.2f} h "
          f"({serial_hours / result.makespan_hours:.1f}x faster)")
    print(f"interruptions   : {result.total_interruptions} "
          f"(each migrated only its own step)")
    print(f"total cost      : ${result.total_cost:.2f}")

    print("\nPer-step causal chain (obs explain study1):")
    text = render_explanation(list(provider.telemetry.bus), "study1")
    for line in text.splitlines()[:18]:
        print(f"  {line}")
    print("  ...")
    provider.shutdown()


if __name__ == "__main__":
    main()
