#include "runtime/wasm_sandbox.h"

#include <gtest/gtest.h>

#include "runtime/function.h"

namespace rr::runtime {
namespace {

FunctionSpec Spec(const std::string& name, const std::string& workflow = "wf") {
  FunctionSpec spec;
  spec.name = name;
  spec.workflow = workflow;
  return spec;
}

std::unique_ptr<WasmSandbox> MakeSandbox(const std::string& name = "fn") {
  const Bytes binary = BuildFunctionModuleBinary();
  auto sandbox = WasmSandbox::Create(Spec(name), binary);
  EXPECT_TRUE(sandbox.ok()) << sandbox.status();
  return sandbox.ok() ? std::move(*sandbox) : nullptr;
}

TEST(FunctionModuleTest, BinaryDeclaresAbiExports) {
  const Bytes binary = BuildFunctionModuleBinary();
  auto sandbox = WasmSandbox::Create(Spec("abi"), binary);
  ASSERT_TRUE(sandbox.ok()) << sandbox.status();
  EXPECT_TRUE((*sandbox)->instance().HasExport(kExportAllocate));
  EXPECT_TRUE((*sandbox)->instance().HasExport(kExportDeallocate));
  EXPECT_TRUE((*sandbox)->instance().HasExport(kExportHandle));
}

TEST(FunctionModuleTest, PackUnpackRegion) {
  const auto [addr, len] = UnpackRegion(PackRegion(0xdeadbeef, 0x1234));
  EXPECT_EQ(addr, 0xdeadbeefu);
  EXPECT_EQ(len, 0x1234u);
}

TEST(WasmSandboxTest, AllocateGoesThroughGuestExport) {
  auto sandbox = MakeSandbox();
  ASSERT_NE(sandbox, nullptr);
  auto addr = sandbox->AllocateMemory(1000);
  ASSERT_TRUE(addr.ok()) << addr.status();
  EXPECT_GE(*addr, 64u * 1024);  // above heap_base
  EXPECT_EQ(sandbox->allocator().live_allocations(), 1u);
  ASSERT_TRUE(sandbox->DeallocateMemory(*addr).ok());
  EXPECT_EQ(sandbox->allocator().live_allocations(), 0u);
}

TEST(WasmSandboxTest, UndeployedHandleTraps) {
  auto sandbox = MakeSandbox();
  ASSERT_NE(sandbox, nullptr);
  auto result = sandbox->Invoke(AsBytes("data"));
  ASSERT_FALSE(result.ok());  // stub body is `unreachable`
}

TEST(WasmSandboxTest, DeployAndInvoke) {
  auto sandbox = MakeSandbox();
  ASSERT_NE(sandbox, nullptr);
  ASSERT_TRUE(sandbox
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    Bytes out(input.begin(), input.end());
                    std::reverse(out.begin(), out.end());
                    return out;
                  })
                  .ok());
  auto result = sandbox->Invoke(AsBytes("abcdef"));
  ASSERT_TRUE(result.ok()) << result.status();
  auto view = sandbox->SliceMemory(result->output_address, result->output_length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(AsStringView(*view), "fedcba");
}

TEST(WasmSandboxTest, HandlerErrorPropagates) {
  auto sandbox = MakeSandbox();
  ASSERT_NE(sandbox, nullptr);
  ASSERT_TRUE(sandbox
                  ->Deploy([](ByteSpan) -> Result<Bytes> {
                    return InvalidArgumentError("bad input");
                  })
                  .ok());
  auto result = sandbox->Invoke(AsBytes("x"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(WasmSandboxTest, HostReadWriteRoundTrip) {
  auto sandbox = MakeSandbox();
  ASSERT_NE(sandbox, nullptr);
  auto addr = sandbox->AllocateMemory(16);
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(sandbox->WriteMemoryHost(*addr, AsBytes("host -> guest")).ok());
  Bytes out(13);
  ASSERT_TRUE(sandbox->ReadMemoryHost(*addr, out).ok());
  EXPECT_EQ(ToString(out), "host -> guest");
  EXPECT_EQ(sandbox->wasm_io_bytes(), 26u);
}

TEST(WasmSandboxTest, MemoryLimitEnforced) {
  const Bytes binary = BuildFunctionModuleBinary();
  FunctionSpec spec = Spec("limited");
  spec.memory_limit_pages = 48;  // 3 MiB
  auto sandbox = WasmSandbox::Create(spec, binary);
  ASSERT_TRUE(sandbox.ok()) << sandbox.status();
  // First allocation within budget succeeds; an over-budget one fails closed.
  auto small = (*sandbox)->AllocateMemory(1 << 20);
  EXPECT_TRUE(small.ok()) << small.status();
  auto huge = (*sandbox)->AllocateMemory(16 << 20);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
}

TEST(WasmSandboxTest, LoadsModuleWithoutDeclaredMaximum) {
  wasm::ModuleBuilder builder;
  builder.SetMemory({.min_pages = 1});
  wasm::CodeEmitter stub;
  stub.Unreachable().End();
  builder.ExportFunction(
      std::string(kExportAllocate),
      builder.AddFunction({{wasm::ValType::kI32}, {wasm::ValType::kI32}}, {}, stub));
  builder.ExportFunction(std::string(kExportDeallocate),
                         builder.AddFunction({{wasm::ValType::kI32}, {}}, {}, stub));
  FunctionSpec spec = Spec("unbounded");
  spec.memory_limit_pages = 8;
  auto sandbox = WasmSandbox::Create(spec, builder.Encode());
  ASSERT_TRUE(sandbox.ok()) << sandbox.status();
  // The sandbox's limit becomes the maximum the module left open.
  wasm::LinearMemory* memory = (*sandbox)->instance().memory();
  EXPECT_EQ(memory->limits().max_pages, spec.memory_limit_pages);
  EXPECT_EQ(memory->Grow(spec.memory_limit_pages - 1), 1);
  EXPECT_EQ(memory->Grow(1), -1);
  EXPECT_EQ(memory->pages(), spec.memory_limit_pages);
}

TEST(WasmSandboxTest, RejectsModuleWithoutMemory) {
  wasm::ModuleBuilder builder;  // no memory section
  auto sandbox = WasmSandbox::Create(Spec("no-mem"), builder.Encode());
  ASSERT_FALSE(sandbox.ok());
}

TEST(WasmSandboxTest, RejectsGarbageBinary) {
  const Bytes garbage = ToBytes("not wasm at all");
  EXPECT_FALSE(WasmSandbox::Create(Spec("junk"), garbage).ok());
}

TEST(WasmVmTest, HostsModulesOfSameWorkflow) {
  const Bytes binary = BuildFunctionModuleBinary();
  WasmVm vm("wf");
  auto a = vm.AddModule(Spec("a"), binary);
  auto b = vm.AddModule(Spec("b"), binary);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(vm.module_count(), 2u);
  EXPECT_EQ(vm.Find("a"), *a);
  EXPECT_EQ(vm.Find("missing"), nullptr);
}

TEST(WasmVmTest, RejectsForeignWorkflow) {
  const Bytes binary = BuildFunctionModuleBinary();
  WasmVm vm("wf");
  auto foreign = vm.AddModule(Spec("evil", "other-wf"), binary);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kPermissionDenied);
}

TEST(WasmVmTest, RejectsForeignTenant) {
  const Bytes binary = BuildFunctionModuleBinary();
  WasmVm vm("wf", "tenant-1");
  FunctionSpec spec = Spec("fn");
  spec.tenant = "tenant-2";
  auto foreign = vm.AddModule(spec, binary);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kPermissionDenied);
}

TEST(WasmVmTest, RejectsDuplicateName) {
  const Bytes binary = BuildFunctionModuleBinary();
  WasmVm vm("wf");
  ASSERT_TRUE(vm.AddModule(Spec("a"), binary).ok());
  auto duplicate = vm.AddModule(Spec("a"), binary);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
}

TEST(WasmVmTest, ModulesHaveIsolatedMemories) {
  const Bytes binary = BuildFunctionModuleBinary();
  WasmVm vm("wf");
  auto a = vm.AddModule(Spec("a"), binary);
  auto b = vm.AddModule(Spec("b"), binary);
  ASSERT_TRUE(a.ok() && b.ok());
  auto addr_a = (*a)->AllocateMemory(64);
  ASSERT_TRUE(addr_a.ok());
  ASSERT_TRUE((*a)->WriteMemoryHost(*addr_a, AsBytes("secret-a")).ok());
  // Reading the same address in b yields different (untouched) memory.
  Bytes probe(8);
  ASSERT_TRUE((*b)->ReadMemoryHost(*addr_a, probe).ok());
  EXPECT_NE(ToString(probe), "secret-a");
}

}  // namespace
}  // namespace rr::runtime
