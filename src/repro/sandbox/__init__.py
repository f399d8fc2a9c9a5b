"""User-code isolation (§3.3): sandboxes, dispatcher, cluster manager.

There is one sandbox: :class:`~repro.sandbox.subprocess_sandbox.SubprocessSandbox`,
a worker process that holds none of this package. A client's function
reaches it as the cloudpickle bytes the client sent, and the worker is the
one place they are unpickled. Calls cross as length-prefixed pickle frames
on pipes, worker replies are decoded data-only, and the worker's
:mod:`~repro.sandbox.net` egress comes back up the pipe for the driver to
check against the sandbox's policy.

The :class:`~repro.sandbox.dispatcher.Dispatcher` pools sandboxes per
(session, trust domain) and executes *fused* UDF groups in one round-trip;
the :class:`~repro.sandbox.cluster_manager.ClusterManager` creates sandboxes
and owns the egress network rules. The package imports none of them, so a
UDF that imports :mod:`repro.sandbox.net` inside the worker loads no engine
module.
"""
