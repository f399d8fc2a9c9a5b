"""ACID governed write path: transactions, atomic commits, crash recovery.

See :mod:`repro.txn.manager` for the commit protocol and
:mod:`repro.txn.writes` for write-side FGAC and materialization.
"""

from repro.txn.manager import (
    TXN_CONFLICT_RETRIES,
    TXN_FAULT_RETRIES,
    Transaction,
    TransactionManager,
)
from repro.txn.writes import (
    DeleteOp,
    InsertOp,
    MergeOp,
    StagedWrite,
    UpdateOp,
    apply_ops,
    check_write,
)

__all__ = [
    "TXN_CONFLICT_RETRIES",
    "TXN_FAULT_RETRIES",
    "Transaction",
    "TransactionManager",
    "DeleteOp",
    "InsertOp",
    "MergeOp",
    "StagedWrite",
    "UpdateOp",
    "apply_ops",
    "check_write",
]
