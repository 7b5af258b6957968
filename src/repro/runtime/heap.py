"""The simulated heap: structs and arrays reached through pointers.

Object ids are small integers assigned in allocation order.  They are
*run-specific* — two executions of the same program allocate the same
logical object under different ids when their schedules differ — which is
exactly why core-dump comparison works on reference paths rather than
addresses (paper Sec. 4).
"""

from ..lang.errors import InterpreterError, NullDereference, OutOfBounds
from ..lang.values import Pointer, check_value


class HeapStruct:
    """A record with named fields."""

    __slots__ = ("fields",)

    def __init__(self, fields):
        self.fields = dict(fields)

    def get(self, name, pc=None, thread=None):
        if name not in self.fields:
            raise InterpreterError("struct has no field %r" % name)
        return self.fields[name]

    def set(self, name, value, pc=None, thread=None):
        if name not in self.fields:
            raise InterpreterError("struct has no field %r" % name)
        self.fields[name] = check_value(value)

    def cells(self):
        """Iterate ``(key, value)`` pairs in a deterministic order."""
        return list(self.fields.items())

    def __repr__(self):
        return "struct{%s}" % ", ".join(
            "%s=%r" % (k, v) for k, v in self.fields.items())


class HeapArray:
    """A fixed-size array."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = list(elements)

    def get(self, idx, pc=None, thread=None):
        self._check(idx, pc, thread)
        return self.elements[idx]

    def set(self, idx, value, pc=None, thread=None):
        self._check(idx, pc, thread)
        self.elements[idx] = check_value(value)

    def _check(self, idx, pc, thread):
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise InterpreterError("array index %r is not an integer" % (idx,))
        if not 0 <= idx < len(self.elements):
            raise OutOfBounds(
                "index %d outside array of length %d" % (idx, len(self.elements)),
                pc=pc, thread=thread)

    def cells(self):
        return list(enumerate(self.elements))

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "array%r" % (self.elements,)


class Heap:
    """All live heap objects of one execution."""

    def __init__(self):
        self._objects = {}
        self._next_id = 1

    def alloc_struct(self, fields):
        return self._alloc(HeapStruct(fields))

    def alloc_array(self, elements):
        return self._alloc(HeapArray(elements))

    def _alloc(self, obj):
        obj_id = self._next_id
        self._next_id += 1
        self._objects[obj_id] = obj
        return Pointer(obj_id)

    def deref(self, pointer, pc=None, thread=None):
        """Resolve ``pointer`` to its heap object; fault on NULL."""
        if not isinstance(pointer, Pointer):
            raise InterpreterError("dereference of non-pointer %r" % (pointer,))
        if pointer.is_null:
            raise NullDereference("null pointer dereference", pc=pc, thread=thread)
        obj = self._objects.get(pointer.obj_id)
        if obj is None:
            raise InterpreterError("dangling pointer %r" % (pointer,))
        return obj

    def alloc_from_python(self, value):
        """Allocate nested Python lists/dicts as arrays/structs.

        Used to materialize global initializers; returns the value to
        store in the global cell (a pointer for containers, the value
        itself for primitives).
        """
        if isinstance(value, dict):
            fields = {k: self.alloc_from_python(v) for k, v in value.items()}
            return self.alloc_struct(fields)
        if isinstance(value, (list, tuple)):
            return self.alloc_array([self.alloc_from_python(v) for v in value])
        if value is None:
            return Pointer(None)
        return check_value(value)

    def objects(self):
        """Deterministically ordered ``(obj_id, object)`` pairs."""
        return sorted(self._objects.items())

    def get(self, obj_id):
        return self._objects[obj_id]

    def __len__(self):
        return len(self._objects)
