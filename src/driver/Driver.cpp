//===- driver/Driver.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <string>

using namespace fearless;

Expected<Pipeline> fearless::compile(std::string_view Source,
                                     const CheckerOptions &Opts) {
  Pipeline Out;
  FunctionContinuation Verify;
  if (Opts.EmitDerivations)
    Verify = [&Out](const CheckedProgram &Program,
                    const CheckedFunction &Fn) -> ExpectedVoid {
      Expected<VerifyStats> Stats = verifyFunction(Program, Fn);
      if (!Stats)
        return Stats.takeFailure();
      Out.Verified.StepsChecked += Stats->StepsChecked;
      Out.Verified.VirtualStepsChecked += Stats->VirtualStepsChecked;
      return {};
    };
  Expected<FrontendResult> Front = checkSource(Source, Opts, Verify);
  if (!Front)
    return Front.takeFailure();
  Out.Prog = std::move(Front->Prog);
  Out.Checked = std::move(Front->Checked);
  return Out;
}

//===----------------------------------------------------------------------===//
// Sample programs
//===----------------------------------------------------------------------===//

// Fig. 1 singly linked list plus the full suite referenced in §8: only
// two `consumes` annotations are needed across the suite, matching the
// paper's observation.
const char *programs::SllSuite = R"prog(
// A singly linked list with recursively linear ownership (Fig. 1).
struct data { value : int; }

struct sll_node {
  iso payload : data;
  iso next : sll_node?;
}

struct sll {
  iso hd : sll_node?;
}

def sll_new() : sll { new sll() }

def node_new(p : data) : sll_node consumes p {
  new sll_node(p, none)
}

def push_front(l : sll, p : data) : unit consumes p {
  let n = new sll_node(p, l.hd);
  l.hd = some n;
}

def pop_front(l : sll) : data? {
  let some(n) = l.hd in {
    l.hd = n.next;
    some n.payload
  } else { none }
}

// Fig. 2: removing the final element. The returned payload is a
// dominating reference no longer encapsulated by the list.
def remove_tail(n : sll_node) : data? {
  let some(next) = n.next in {
    if (is_none(next.next)) {
      n.next = none;
      some next.payload
    } else { remove_tail(next) }
  } else { none }
}

def list_remove_tail(l : sll) : data? {
  let some(hd) = l.hd in {
    if (is_none(hd.next)) {
      l.hd = none;
      some hd.payload
    } else { remove_tail(hd) }
  } else { none }
}

// Fig. 14: concatenation. The second list is consumed — retracted into an
// iso field of the first and wholly owned by it afterwards.
def concat(l1, l2 : sll_node) : unit consumes l2 {
  let some(l1_next) = l1.next in {
    concat(l1_next, l2);
  } else {
    l1.next = some l2;
  }
}

def length_node(n : sll_node) : int {
  let some(next) = n.next in { 1 + length_node(next) } else { 1 }
}

def length(l : sll) : int {
  let some(hd) = l.hd in { length_node(hd) } else { 0 }
}

def sum_node(n : sll_node) : int {
  let some(next) = n.next in {
    n.payload.value + sum_node(next)
  } else { n.payload.value }
}

def sum(l : sll) : int {
  let some(hd) = l.hd in { sum_node(hd) } else { 0 }
}

def nth_value_node(n : sll_node, pos : int) : int {
  if (pos <= 0) { n.payload.value }
  else {
    let some(next) = n.next in { nth_value_node(next, pos - 1) }
    else { -1 }
  }
}

def nth_value(l : sll, pos : int) : int {
  let some(hd) = l.hd in { nth_value_node(hd, pos) } else { -1 }
}
)prog";

// Fig. 1 circular doubly linked list with shared ownership, Fig. 5
// remove_tail via `if disconnected`, and Fig. 14 get_nth_node.
const char *programs::DllSuite = R"prog(
struct data { value : int; }

struct dll_node {
  iso payload : data;
  next : dll_node;
  prev : dll_node;
}

struct dll {
  iso hd : dll_node?;
}

def dll_new() : dll { new dll() }

// A fresh node's next/prev default to self-references: exactly the
// size-1 circular list of Fig. 3.
def dll_singleton(p : data) : dll consumes p {
  let n = new dll_node(p);
  let l = new dll() in {
    l.hd = some n;
    l
  }
}

def push_front(l : dll, p : data) : unit consumes p {
  let n = new dll_node(p);
  let some(hd) = l.hd in {
    let last = hd.prev;
    n.next = hd;
    n.prev = last;
    last.next = n;
    hd.prev = n;
    l.hd = some n;
  } else {
    l.hd = some n;
  }
}

def push_back(l : dll, p : data) : unit consumes p {
  let n = new dll_node(p);
  let some(hd) = l.hd in {
    let last = hd.prev;
    n.next = hd;
    n.prev = last;
    last.next = n;
    hd.prev = n;
    l.hd = some hd;
  } else {
    l.hd = some n;
  }
}

// Fig. 5: retrieving the tail of a circular doubly linked list, fixed
// with `if disconnected`. The manual repointing of tail.next/tail.prev is
// required because disconnection is symmetric, and l.hd must be
// reassigned in both branches because the type system cannot know which
// side of the split it targets.
def remove_tail(l : dll) : data? {
  let some(hd) = l.hd in {
    let tail = hd.prev;
    tail.prev.next = hd;
    hd.prev = tail.prev;
    // to ensure disjointness for if-disconnected
    tail.next = tail;
    tail.prev = tail;
    if disconnected(tail, hd) {
      l.hd = some hd; // l.hd invalid at branch start
      some tail.payload
    } else {
      l.hd = none;
      some hd.payload
    }
  } else { none }
}

// Fig. 14: the nth node, wrapping around. The after-annotation records
// that the result lives in the same region as the list's spine.
def get_nth_node(l : dll, pos : int) : dll_node?
    after: l.hd ~ result {
  let some(node) = l.hd in {
    while (pos > 0) {
      node = node.next;
      pos = pos - 1
    };
    some node
  } else { none }
}

def length(l : dll) : int {
  let some(hd) = l.hd in {
    let cursor = hd.next;
    let count = 1;
    let stop = is_last(cursor, hd);
    while (!stop) {
      count = count + 1;
      cursor = cursor.next;
      stop = is_last(cursor, hd)
    };
    count
  } else { 0 }
}

def pvalue(n : dll_node) : int { n.payload.value }

// Circularity makes "cursor is hd again" the stop test; the language has
// no reference equality, so payload identity stands in (payload values
// must be distinct). The two aliased same-region arguments require a
// `before:` relation; each payload read happens in its own call so the
// focus on one alias is released before the other is focused.
def is_last(cursor, hd : dll_node) : bool before: cursor ~ hd {
  pvalue(cursor) == pvalue(hd)
}

def value_at(l : dll, pos : int) : int {
  let some(node) = l.hd in {
    while (pos > 0) {
      node = node.next;
      pos = pos - 1
    };
    node.payload.value
  } else { -1 }
}

// Remove the node after the head: the same if-disconnected discipline as
// Fig. 5, exercised at a different position (victim == hd when the list
// is a singleton).
def remove_next(l : dll) : data? {
  let some(hd) = l.hd in {
    let victim = hd.next;
    victim.prev.next = victim.next;
    victim.next.prev = victim.prev;
    victim.next = victim;
    victim.prev = victim;
    if disconnected(victim, hd) {
      l.hd = some hd;
      some victim.payload
    } else {
      l.hd = none;
      some hd.payload
    }
  } else { none }
}

// Callers of get_nth_node: the after-annotation tells the caller the
// returned node shares the spine's region, so in-place surgery around it
// type-checks (T9 instantiating the Fig. 14 function type).
def set_value_at(l : dll, pos, v : int) : unit {
  let some(node) = get_nth_node(l, pos) in {
    node.payload.value = v;
  } else { unit }
}

def insert_after(l : dll, pos : int, p : data) : unit consumes p {
  let some(node) = get_nth_node(l, pos) in {
    let n = new dll_node(p);
    let nxt = node.next;
    n.next = nxt;
    n.prev = node;
    node.next = n;
    nxt.prev = n;
  } else {
    push_front(l, p);
  }
}
)prog";

// Fig. 4: the broken remove_tail. For size-1 lists hd and hd.prev alias,
// so the returned payload is not a dominating reference; the checker must
// reject this function (the fix is Fig. 5's `if disconnected`).
const char *programs::DllBrokenRemoveTail = R"prog(
struct data { value : int; }

struct dll_node {
  iso payload : data;
  next : dll_node;
  prev : dll_node;
}

struct dll {
  iso hd : dll_node?;
}

def remove_tail(l : dll) : data? {
  let some(hd) = l.hd in {
    let tail = hd.prev;
    tail.prev.next = hd;
    hd.prev = tail.prev;
    some tail.payload
  } else { none }
}
)prog";

// A red-black tree: iso payloads, intra-region parent/child pointers,
// rotations as aliased-parameter helper functions (`before:` region
// relations — the aliased-argument function types of §8's shuffle
// example). Keys are assumed distinct; each node records whether it is
// its parent's left child to avoid identity comparisons.
const char *programs::RedBlackTree = R"prog(
struct data { value : int; }

struct rb_node {
  iso payload : data;
  left : rb_node?;
  right : rb_node?;
  parent : rb_node?;
  red : bool;
  left_child : bool;
}

struct rb_tree {
  iso root : rb_node?;
}

def rb_new() : rb_tree { new rb_tree() }

def rb_node_new(p : data) : rb_node consumes p {
  let n = new rb_node(p) in {
    n.red = true;
    n
  }
}

def rb_value(n : rb_node) : int { n.payload.value }

// Left rotation around x; x and the tree's spine share a region.
def rotate_left(t : rb_tree, x : rb_node) : unit before: t.root ~ x {
  let some(y) = x.right in {
    x.right = y.left;
    let some(yl) = y.left in {
      yl.parent = some x;
      yl.left_child = false;
    } else { unit };
    y.parent = x.parent;
    y.left_child = x.left_child;
    let some(xp) = x.parent in {
      if (x.left_child) { xp.left = some y; }
      else { xp.right = some y; }
    } else {
      t.root = some y;
    };
    y.left = some x;
    x.parent = some y;
    x.left_child = true;
  } else { unit }
}

def rotate_right(t : rb_tree, x : rb_node) : unit before: t.root ~ x {
  let some(y) = x.left in {
    x.left = y.right;
    let some(yr) = y.right in {
      yr.parent = some x;
      yr.left_child = true;
    } else { unit };
    y.parent = x.parent;
    y.left_child = x.left_child;
    let some(xp) = x.parent in {
      if (x.left_child) { xp.left = some y; }
      else { xp.right = some y; }
    } else {
      t.root = some y;
    };
    y.right = some x;
    x.parent = some y;
    x.left_child = false;
  } else { unit }
}

// Plain BST insertion; the new node's region merges into the spine's.
def bst_insert(cur, n : rb_node) : unit after: n ~ cur {
  if (rb_value(n) < rb_value(cur)) {
    let some(l) = cur.left in {
      bst_insert(l, n);
    } else {
      cur.left = some n;
      n.parent = some cur;
      n.left_child = true;
    }
  } else {
    let some(r) = cur.right in {
      bst_insert(r, n);
    } else {
      cur.right = some n;
      n.parent = some cur;
      n.left_child = false;
    }
  }
}

def uncle_red_right(gp : rb_node) : bool {
  let some(u) = gp.right in { u.red } else { false }
}

def uncle_red_left(gp : rb_node) : bool {
  let some(u) = gp.left in { u.red } else { false }
}

def blacken_right(gp : rb_node) : unit {
  let some(u) = gp.right in { u.red = false; } else { unit }
}

def blacken_left(gp : rb_node) : unit {
  let some(u) = gp.left in { u.red = false; } else { unit }
}

// CLRS insert fixup, iterative.
def rb_fixup(t : rb_tree, z0 : rb_node) : unit before: t.root ~ z0 {
  let z = z0;
  let cont = true;
  while (cont) {
    cont = false;
    let some(zp) = z.parent in {
      if (zp.red) {
        let some(gp) = zp.parent in {
          if (zp.left_child) {
            if (uncle_red_right(gp)) {
              zp.red = false;
              blacken_right(gp);
              gp.red = true;
              z = gp;
              cont = true
            } else {
              if (z.left_child) { unit } else {
                z = zp;
                rotate_left(t, z)
              };
              let some(zp2) = z.parent in {
                zp2.red = false;
                let some(gp2) = zp2.parent in {
                  gp2.red = true;
                  rotate_right(t, gp2);
                } else { unit }
              } else { unit }
            }
          } else {
            if (uncle_red_left(gp)) {
              zp.red = false;
              blacken_left(gp);
              gp.red = true;
              z = gp;
              cont = true
            } else {
              if (z.left_child) {
                z = zp;
                rotate_right(t, z)
              } else { unit };
              let some(zp2) = z.parent in {
                zp2.red = false;
                let some(gp2) = zp2.parent in {
                  gp2.red = true;
                  rotate_left(t, gp2);
                } else { unit }
              } else { unit }
            }
          }
        } else { unit }
      } else { unit }
    } else { unit }
  };
  let some(r) = t.root in { r.red = false; } else { unit }
}

def rb_insert(t : rb_tree, p : data) : unit consumes p {
  let n = rb_node_new(p);
  let some(root) = t.root in {
    bst_insert(root, n);
    rb_fixup(t, n);
  } else {
    n.red = false;
    t.root = some n;
  }
}

def node_contains(cur : rb_node, v : int) : bool {
  let cv = rb_value(cur);
  if (cv == v) { true }
  else {
    if (v < cv) {
      let some(l) = cur.left in { node_contains(l, v) } else { false }
    } else {
      let some(r) = cur.right in { node_contains(r, v) } else { false }
    }
  }
}

def rb_contains(t : rb_tree, v : int) : bool {
  let some(root) = t.root in { node_contains(root, v) } else { false }
}

def node_min(cur : rb_node) : int {
  let some(l) = cur.left in { node_min(l) } else { rb_value(cur) }
}

def rb_min(t : rb_tree) : int {
  let some(root) = t.root in { node_min(root) } else { -1 }
}

def node_size(cur : rb_node) : int {
  let ls = let some(l) = cur.left in { node_size(l) } else { 0 };
  let rs = let some(r) = cur.right in { node_size(r) } else { 0 };
  1 + ls + rs
}

def rb_size(t : rb_tree) : int {
  let some(root) = t.root in { node_size(root) } else { 0 }
}

def node_height(cur : rb_node) : int {
  let lh = let some(l) = cur.left in { node_height(l) } else { 0 };
  let rh = let some(r) = cur.right in { node_height(r) } else { 0 };
  if (lh < rh) { 1 + rh } else { 1 + lh }
}

def rb_height(t : rb_tree) : int {
  let some(root) = t.root in { node_height(root) } else { 0 }
}

// Black-height of the subtree, or -1 on a red-red or imbalance violation.
def check_node(cur : rb_node) : int {
  let cr = cur.red;
  let lh = let some(l) = cur.left in {
    if (cr && l.red) { -1 } else { check_node(l) }
  } else { 0 };
  let rh = let some(r) = cur.right in {
    if (cr && r.red) { -1 } else { check_node(r) }
  } else { 0 };
  if (lh < 0 || rh < 0 || lh != rh) { -1 }
  else { if (cr) { lh } else { lh + 1 } }
}

// The appendix's shuffle idiom: take nodes in an arbitrary, possibly
// deeply aliased same-region state and impose a fixed pointer structure
// (a is the parent of leaves b and c).
def shuffle(a, b, c : rb_node) : unit before: a ~ b, a ~ c {
  a.left = some b;
  a.right = some c;
  a.parent = none;
  b.parent = some a;
  b.left_child = true;
  b.left = none;
  b.right = none;
  c.parent = some a;
  c.left_child = false;
  c.left = none;
  c.right = none;
}

def rb_check(t : rb_tree) : bool {
  let some(root) = t.root in {
    if (root.red) { false } else { 0 <= check_node(root) }
  } else { true }
}
)prog";

// A tree of regions: every edge is an iso field, so each node dominates
// its subtree and whole subtrees can be detached or sent independently.
const char *programs::BitTrie = R"prog(
struct trie_node {
  iso zero : trie_node?;
  iso one : trie_node?;
  value : int;
  present : bool;
}

struct trie {
  iso root : trie_node?;
}

def trie_new() : trie { new trie() }

def node_insert(n : trie_node, key, depth, v : int) : unit {
  if (depth <= 0) {
    n.value = v;
    n.present = true;
  } else {
    if (key % 2 == 0) {
      let some(z) = n.zero in {
        node_insert(z, key / 2, depth - 1, v);
      } else {
        let c = new trie_node();
        node_insert(c, key / 2, depth - 1, v);
        n.zero = some c;
      }
    } else {
      let some(o) = n.one in {
        node_insert(o, key / 2, depth - 1, v);
      } else {
        let c = new trie_node();
        node_insert(c, key / 2, depth - 1, v);
        n.one = some c;
      }
    }
  }
}

def trie_insert(t : trie, key, v : int) : unit {
  let some(r) = t.root in {
    node_insert(r, key, 16, v);
  } else {
    let c = new trie_node();
    node_insert(c, key, 16, v);
    t.root = some c;
  }
}

def node_lookup(n : trie_node, key, depth : int) : int {
  if (depth <= 0) {
    if (n.present) { n.value } else { -1 }
  } else {
    if (key % 2 == 0) {
      let some(z) = n.zero in { node_lookup(z, key / 2, depth - 1) }
      else { -1 }
    } else {
      let some(o) = n.one in { node_lookup(o, key / 2, depth - 1) }
      else { -1 }
    }
  }
}

def trie_lookup(t : trie, key : int) : int {
  let some(r) = t.root in { node_lookup(r, key, 16) } else { -1 }
}

def node_count(n : trie_node) : int {
  let zc = let some(z) = n.zero in { node_count(z) } else { 0 };
  let oc = let some(o) = n.one in { node_count(o) } else { 0 };
  let self = if (n.present) { 1 } else { 0 };
  zc + oc + self
}

def trie_count(t : trie) : int {
  let some(r) = t.root in { node_count(r) } else { 0 }
}

// Detach the entire zero-subtree of the root and send it to another
// thread: a whole subtree changes reservations with O(1) static
// reasoning (the iso edge dominates it).
def trie_send_zero_subtree(t : trie) : bool {
  let some(r) = t.root in {
    let some(z) = r.zero in {
      r.zero = none;
      send(z);
      true
    } else { false }
  } else { false }
}

def trie_recv_counter() : int {
  let n = recv<trie_node>();
  node_count(n)
}
)prog";

namespace {

/// MessagePassing = the sll suite + producer/consumer pipelines.
const std::string MessagePassingStorage = std::string(programs::SllSuite) +
                                          R"prog(
// Single-item pipeline: each item crosses threads with no locking.
def producer(count : int) : unit {
  let i = 0;
  while (i < count) {
    let d = new data(i) in { send(d) };
    i = i + 1
  }
}

def consumer(count : int) : int {
  let total = 0;
  let i = 0;
  while (i < count) {
    let d = recv<data>() in {
      total = total + d.value
    };
    i = i + 1
  };
  total
}

// Whole-list pipeline: entire list segments move between reservations.
def producer_lists(count, chunk : int) : unit {
  let i = 0;
  while (i < count) {
    let l = sll_new();
    let j = 0;
    while (j < chunk) {
      let p = new data(j) in { push_front(l, p) };
      j = j + 1
    };
    send(l);
    i = i + 1
  }
}

def consumer_lists(count : int) : int {
  let total = 0;
  let i = 0;
  while (i < count) {
    let l = recv<sll>() in {
      total = total + sum(l)
    };
    i = i + 1
  };
  total
}

// Map/reduce worker pool: workers turn list segments into int results;
// the reducer folds them. Channels are typed, so list traffic and result
// traffic never cross.
def worker(count : int) : unit {
  let i = 0;
  while (i < count) {
    let l = recv<sll>() in {
      send(sum(l))
    };
    i = i + 1
  }
}

def reducer(count : int) : int {
  let total = 0;
  let i = 0;
  while (i < count) {
    total = total + recv<int>();
    i = i + 1
  };
  total
}

// Echo stage for ring pipelines: receive a list, add one element, pass
// it on.
def relay(count : int) : unit {
  let i = 0;
  while (i < count) {
    let l = recv<sll>() in {
      let p = new data(1000) in { push_front(l, p) };
      send(l)
    };
    i = i + 1
  }
}
)prog";

/// Extras = the sll suite + reversal, sorting, and a queue.
const std::string ExtrasStorage = std::string(programs::SllSuite) +
                                  R"prog(
struct holder { iso head : sll_node?; }

def node_value(n : sll_node) : int { n.payload.value }

// In-place reversal: each loop iteration detaches the head node and
// pushes it onto the output. Retracting n.next after the repoint is what
// makes this sound — the old "reversed so far" list ends up dominated by
// the new head.
def reverse(h : holder) : unit {
  let out = new holder();
  let cont = true;
  while (cont) {
    let some(n) = h.head in {
      h.head = n.next;
      n.next = out.head;
      out.head = some n;
    } else { cont = false }
  };
  h.head = out.head;
}

// Sorted insertion. The inserted node must arrive dominating (its next
// broken), which the callers ensure.
def ins(cur, n : sll_node) : unit consumes n {
  let some(next) = cur.next in {
    if (node_value(n) < node_value(next)) {
      n.next = cur.next;
      cur.next = some n;
    } else {
      ins(next, n);
    }
  } else {
    n.next = none;
    cur.next = some n;
  }
}

def insert_sorted(h : holder, n : sll_node) : unit consumes n {
  let some(hd) = h.head in {
    if (node_value(n) < node_value(hd)) {
      n.next = h.head;
      h.head = some n;
    } else {
      ins(hd, n);
    }
  } else {
    n.next = none;
    h.head = some n;
  }
}

// Insertion sort: drain src into dst in sorted order. Note the mandatory
// `n.next = none` before the call: passing n while it still points into
// src would let the callee capture src's tail — the checker releases n's
// tracking at the call, which would otherwise invalidate src.head.
def sort_into(src, dst : holder) : unit {
  let cont = true;
  while (cont) {
    let some(n) = src.head in {
      src.head = n.next;
      n.next = none;
      insert_sorted(dst, n);
    } else { cont = false }
  }
}

def holder_push(h : holder, p : data) : unit consumes p {
  let n = new sll_node(p, h.head);
  h.head = some n;
}

def holder_sum(h : holder) : int {
  let some(hd) = h.head in { sum_node(hd) } else { 0 }
}

// Read n's value *before* tracking n.next: the call to node_value(n)
// conforms n's region to the default empty input, which would retract the
// tracked next field and invalidate the alias.
def is_sorted_from(n : sll_node) : bool {
  let nv = node_value(n);
  let some(next) = n.next in {
    if (node_value(next) < nv) { false }
    else { is_sorted_from(next) }
  } else { true }
}

def is_sorted(h : holder) : bool {
  let some(hd) = h.head in { is_sorted_from(hd) } else { true }
}

def holder_len(h : holder) : int {
  let some(hd) = h.head in { length_node(hd) } else { 0 }
}

// A two-ended queue out of two stacks: enqueue pushes the back stack;
// dequeue pops the front, reversing the back into the front when empty.
struct queue {
  iso front : holder;
  iso back : holder;
}

def queue_new() : queue {
  new queue(new holder(), new holder())
}

def enqueue(q : queue, p : data) : unit consumes p {
  let b = q.back;
  holder_push(b, p);
}

def dequeue(q : queue) : data? {
  let f = q.front;
  let some(hd) = f.head in {
    f.head = hd.next;
    some hd.payload
  } else {
    // Refill: reverse the back stack into the front.
    let b = q.back;
    reverse(b);
    f.head = b.head;
    b.head = none;
    let some(hd2) = f.head in {
      f.head = hd2.next;
      some hd2.payload
    } else { none }
  }
}

def queue_drain_sum(q : queue) : int {
  let total = 0;
  let cont = true;
  while (cont) {
    let d = dequeue(q);
    let got = let some(p) = d in { total = total + p.value; true }
              else { false };
    cont = got
  };
  total
}
)prog";

} // namespace

const char *programs::MessagePassing = MessagePassingStorage.c_str();
const char *programs::Extras = ExtrasStorage.c_str();
