"""Bad fixture: a driver that simulates beside its one drain."""
from repro.harness.parallel import Plan, run_plans


def figure(n_nodes):
    return Plan(tasks(n_nodes), lambda points: record_run(points))  # one-drain


def main(argv=None):
    figure(8).run()  # one-drain: the plan drains by itself
    run_plans([figure(8)])
    run_plans([figure(16)])  # one-drain: a second call site
    return Cluster(8).run(app)  # one-drain
