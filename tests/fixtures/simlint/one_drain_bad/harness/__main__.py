"""Bad fixture: a driver that simulates beside its one drain."""
from repro.harness.parallel import Plan, run_plans, study


@study
def figure(n_nodes):
    return Plan(tasks(n_nodes), lambda points: record_run(points))  # one-drain


def main(argv=None):
    figure(8)  # one-drain: the study drains by itself
    run_plans([figure.plan(8)])
    run_plans([figure.plan(16)])  # one-drain: a second call site
    return Cluster(8).run(app)  # one-drain
