"""idleclimb: distributed hill-climbing on scavenged desktop idle time.

Workers coordinate exclusively through files in a shared directory: a
presence-signal file gates start/stop, and a versioned, checksummed best
record is updated with an optimistic read-evaluate-reread-merge protocol.
The package also ships a portable idle-scheduler daemon, an operator command
set, and a deterministic fleet simulator.
"""
