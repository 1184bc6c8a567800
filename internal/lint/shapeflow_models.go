package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Built-in shape models for the internal/tensor and internal/autograd op
// vocabulary. Each model mirrors the runtime guard of the corresponding
// op (the panic sites in tensor/ops.go, kernels.go, pool.go): the
// constraint it imposes is exactly the condition whose violation panics,
// so a site whose constraints all resolve to uProved cannot reach the
// guard. Ops outside the vocabulary fall through to function summaries.

// modelCall dispatches one call against the op models. ok is false when
// the callee is not a modeled tensor/autograd operation.
func (in *sfInterp) modelCall(call *ast.CallExpr, fn *types.Func, recv sfVal, args []sfVal) ([]sfVal, bool) {
	inTensor := pkgPathSuffix(fn, "internal/tensor")
	inAG := pkgPathSuffix(fn, "internal/autograd")
	if !inTensor && !inAG {
		return nil, false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		tn := recvBaseTypeName(fn)
		if tn == nil {
			return nil, false
		}
		switch {
		case inTensor && tn.Name() == "Dense":
			return in.modelDenseMethod(call, fn, recv, args)
		case inAG && tn.Name() == "Value":
			return in.modelValueMethod(call, fn, recv, args)
		}
		return nil, false
	}
	if inTensor {
		return in.modelTensorFunc(call, fn, args)
	}
	return in.modelAGFunc(call, fn, args)
}

// pos is the site stats and findings anchor to.
func (in *sfInterp) callPos(call *ast.CallExpr) token.Pos { return call.Lparen }

// argShape reads call argument i as a matrix shape.
func argShape(args []sfVal, i int) sfShape {
	if i < len(args) {
		return asShape(args[i])
	}
	return topShape
}

// argDim reads call argument i as an int dim.
func argDim(args []sfVal, i int) sfDim {
	if i < len(args) {
		return asDim(args[i])
	}
	return dimTop
}

func one(v sfVal) []sfVal { return []sfVal{v} }

// c1 mints the constant dim 1.
func (in *sfInterp) c1(pos token.Pos) sfDim { return in.tbl.constDim(1, in.selfHop(pos)) }

// matmulLike applies the four GEMM inner-dim rules.
func (in *sfInterp) matmulLike(name string, pos token.Pos, a, b sfShape) (sfVal, bool) {
	switch name {
	case "MatMul":
		in.constrain(a.cols, b.rows, pos, "MatMul inner dims", nil)
		return matVal(a.rows, b.cols), true
	case "MatMulTA":
		in.constrain(a.rows, b.rows, pos, "MatMulTA inner dims", nil)
		return matVal(a.cols, b.cols), true
	case "MatMulTB":
		in.constrain(a.cols, b.cols, pos, "MatMulTB inner dims", nil)
		return matVal(a.rows, b.rows), true
	}
	return topVal, false
}

// affineModel: x(B,K) * w(K,N) + bias(1,N).
func (in *sfInterp) affineModel(pos token.Pos, x, w, bias sfShape) sfVal {
	in.constrain(x.cols, w.rows, pos, "Affine inner dims", nil)
	in.constrain(bias.rows, in.c1(pos), pos, "Affine bias rows", nil)
	in.constrain(bias.cols, w.cols, pos, "Affine bias cols", nil)
	return matVal(x.rows, w.cols)
}

// binModel applies the broadcast rule of Add/Sub/Mul/Div: each of b's
// dims is 1 or matches a's. Result takes a's shape.
func (in *sfInterp) binModel(op string, pos token.Pos, a, b sfShape) sfVal {
	in.broadcastCheck(a.rows, b.rows, pos, op+" rows")
	in.broadcastCheck(a.cols, b.cols, pos, op+" cols")
	return matVal(a.rows, a.cols)
}

// intoDst pins an Into-variant destination to the computed shape.
func (in *sfInterp) intoDst(op string, pos token.Pos, dst sfShape, r, c sfDim) {
	in.constrain(dst.rows, r, pos, op+" dst rows", nil)
	in.constrain(dst.cols, c, pos, op+" dst cols", nil)
}

// concatModel handles ConcatCols/ConcatRows width/height arithmetic over
// an explicit argument list: the shared dim unifies pairwise, the
// concatenated dim is the symbolic sum.
func (in *sfInterp) concatModel(name string, call *ast.CallExpr, args []sfVal) sfVal {
	pos := in.callPos(call)
	byCols := name == "ConcatCols"
	if call.Ellipsis.IsValid() {
		// xs... spread: per-element shapes unknown, only the shared dim of
		// a uniform tracked list survives.
		if len(args) == 1 && args[0].kind == vList && args[0].elemOK {
			if byCols {
				return matVal(args[0].elem.rows, dimTop)
			}
			return matVal(dimTop, args[0].elem.cols)
		}
		return topVal
	}
	if len(args) == 0 {
		return topVal
	}
	shapes := make([]sfShape, len(args))
	for i := range args {
		shapes[i] = asShape(args[i])
	}
	shared := func(s sfShape) sfDim {
		if byCols {
			return s.rows
		}
		return s.cols
	}
	sum := constExpr(0)
	sumOK := true
	for i, s := range shapes {
		if i > 0 {
			in.constrain(shared(shapes[0]), shared(s), pos, name+" shared dim", nil)
		}
		d := s.cols
		if !byCols {
			d = s.rows
		}
		if d == dimTop {
			sumOK = false
			continue
		}
		e, ok := in.tbl.resolveDim(d)
		if !ok {
			sumOK = false
			continue
		}
		sum = addExpr(sum, e)
	}
	total := dimTop
	if sumOK {
		total = in.tbl.exprDim(sum, in.selfHop(pos))
	}
	if byCols {
		return matVal(shared(shapes[0]), total)
	}
	return matVal(total, shared(shapes[0]))
}

// widthDim builds to-from for slice ops.
func (in *sfInterp) widthDim(pos token.Pos, from, to sfDim) sfDim {
	if from == dimTop || to == dimTop {
		return dimTop
	}
	ef, okf := in.tbl.resolveDim(from)
	et, okt := in.tbl.resolveDim(to)
	if !okf || !okt {
		return dimTop
	}
	return in.tbl.exprDim(subExpr(et, ef), in.selfHop(pos))
}

// ---- tensor package functions ----

func (in *sfInterp) modelTensorFunc(call *ast.CallExpr, fn *types.Func, args []sfVal) ([]sfVal, bool) {
	pos := in.callPos(call)
	switch fn.Name() {
	case "New", "NewPooled", "NewPooledUninit":
		return one(matVal(argDim(args, 0), argDim(args, 1))), true
	case "Full", "FromSlice", "NewPooledOneHot", "NewPooledBitmap", "NewPooledMasked":
		return one(matVal(argDim(args, 0), argDim(args, 1))), true
	case "Randn", "RandUniform":
		return one(matVal(argDim(args, 1), argDim(args, 2))), true
	case "Scalar":
		return one(matVal(in.c1(pos), in.c1(pos))), true
	case "MatMul", "MatMulTA", "MatMulTB":
		v, _ := in.matmulLike(fn.Name(), pos, argShape(args, 0), argShape(args, 1))
		return one(v), true
	case "MatMulInto":
		v, _ := in.matmulLike("MatMul", pos, argShape(args, 1), argShape(args, 2))
		in.intoDst(fn.Name(), pos, argShape(args, 0), v.shape.rows, v.shape.cols)
		return one(v), true
	case "Affine":
		return one(in.affineModel(pos, argShape(args, 0), argShape(args, 1), argShape(args, 2))), true
	case "Add", "Sub", "Mul", "Div":
		return one(in.binModel(fn.Name(), pos, argShape(args, 0), argShape(args, 1))), true
	case "ReLU", "LeakyReLU":
		a := argShape(args, 0)
		return one(matVal(a.rows, a.cols)), true
	case "ActGrad":
		g, x := argShape(args, 0), argShape(args, 1)
		in.constrain(g.rows, x.rows, pos, "ActGrad rows", nil)
		in.constrain(g.cols, x.cols, pos, "ActGrad cols", nil)
		return one(matVal(g.rows, g.cols)), true
	case "Dropout":
		x := argShape(args, 1)
		return []sfVal{matVal(x.rows, x.cols), matVal(x.rows, x.cols)}, true
	case "ConcatCols", "ConcatRows":
		return one(in.concatModel(fn.Name(), call, args)), true
	case "FromRows":
		return one(topVal), true
	}
	return nil, false
}

// ---- Dense methods ----

func (in *sfInterp) modelDenseMethod(call *ast.CallExpr, fn *types.Func, recv sfVal, args []sfVal) ([]sfVal, bool) {
	pos := in.callPos(call)
	m := asShape(recv)
	switch fn.Name() {
	case "Rows":
		return one(intVal(m.rows)), true
	case "Cols":
		return one(intVal(m.cols)), true
	case "Shape":
		return []sfVal{intVal(m.rows), intVal(m.cols)}, true
	case "Scale", "AddScalar", "Apply", "Clone", "ShuffleRows":
		return one(matVal(m.rows, m.cols)), true
	case "AddInPlace", "AxpyInPlace":
		srcIdx := 0
		if fn.Name() == "AxpyInPlace" {
			srcIdx = 1
		}
		src := argShape(args, srcIdx)
		in.constrain(m.rows, src.rows, pos, fn.Name()+" rows", nil)
		in.constrain(m.cols, src.cols, pos, fn.Name()+" cols", nil)
		return one(matVal(m.rows, m.cols)), true
	case "Expand":
		in.broadcastCheck(argDim(args, 0), m.rows, pos, "Expand rows")
		in.broadcastCheck(argDim(args, 1), m.cols, pos, "Expand cols")
		return one(matVal(argDim(args, 0), argDim(args, 1))), true
	case "SumRows", "MeanRows":
		return one(matVal(in.c1(pos), m.cols)), true
	case "SumCols":
		return one(matVal(m.rows, in.c1(pos))), true
	case "SliceCols":
		return one(matVal(m.rows, in.widthDim(pos, argDim(args, 0), argDim(args, 1)))), true
	case "SliceRows":
		return one(matVal(in.widthDim(pos, argDim(args, 0), argDim(args, 1)), m.cols)), true
	case "SplitCols":
		return one(sfVal{kind: vList, elem: sfShape{rows: m.rows, cols: dimTop}, elemOK: true}), true
	case "GatherRows":
		return one(matVal(dimTop, m.cols)), true
	case "Transpose":
		return one(matVal(m.cols, m.rows)), true
	case "Reshape":
		return one(matVal(argDim(args, 0), argDim(args, 1))), true
	}
	return nil, false
}

// ---- autograd package functions ----

func (in *sfInterp) modelAGFunc(call *ast.CallExpr, fn *types.Func, args []sfVal) ([]sfVal, bool) {
	pos := in.callPos(call)
	switch fn.Name() {
	case "Var", "Const":
		a := argShape(args, 0)
		return one(matVal(a.rows, a.cols)), true
	case "Scalar":
		return one(matVal(in.c1(pos), in.c1(pos))), true
	case "MatMul", "MatMulTA", "MatMulTB":
		v, _ := in.matmulLike(fn.Name(), pos, argShape(args, 0), argShape(args, 1))
		return one(v), true
	case "Affine":
		return one(in.affineModel(pos, argShape(args, 0), argShape(args, 1), argShape(args, 2))), true
	case "Add", "Sub", "Mul", "Div", "AddConst":
		return one(in.binModel(fn.Name(), pos, argShape(args, 0), argShape(args, 1))), true
	case "Neg", "Sqrt", "Log", "ReLU", "Tanh", "SoftmaxRows", "Square", "LeakyReLU", "Dropout", "Scale", "AddScalar":
		a := argShape(args, 0)
		return one(matVal(a.rows, a.cols)), true
	case "Transpose":
		a := argShape(args, 0)
		return one(matVal(a.cols, a.rows)), true
	case "Expand":
		a := argShape(args, 0)
		in.broadcastCheck(argDim(args, 1), a.rows, pos, "Expand rows")
		in.broadcastCheck(argDim(args, 2), a.cols, pos, "Expand cols")
		return one(matVal(argDim(args, 1), argDim(args, 2))), true
	case "SumAll", "MeanAll":
		return one(matVal(in.c1(pos), in.c1(pos))), true
	case "SumRows", "MeanRows":
		a := argShape(args, 0)
		return one(matVal(in.c1(pos), a.cols)), true
	case "SumCols":
		a := argShape(args, 0)
		return one(matVal(a.rows, in.c1(pos))), true
	case "ConcatCols":
		return one(in.concatModel("ConcatCols", call, args)), true
	case "SliceCols":
		a := argShape(args, 0)
		return one(matVal(a.rows, in.widthDim(pos, argDim(args, 1), argDim(args, 2)))), true
	case "PadCols":
		a := argShape(args, 0)
		return one(matVal(a.rows, argDim(args, 2))), true
	case "GatherRows":
		a := argShape(args, 0)
		return one(matVal(dimTop, a.cols)), true
	case "ScatterRows":
		a := argShape(args, 0)
		return one(matVal(argDim(args, 2), a.cols)), true
	case "RowL2Norm":
		a := argShape(args, 0)
		return one(matVal(a.rows, in.c1(pos))), true
	case "Reshape":
		return one(matVal(argDim(args, 1), argDim(args, 2))), true
	case "Grad":
		return one(in.gradModel(call, args, 1)), true
	case "GradWithSeed":
		return one(in.gradModel(call, args, 2)), true
	}
	return nil, false
}

// gradModel: Grad(y, xs...) returns one gradient per x, each with x's
// shape.
func (in *sfInterp) gradModel(call *ast.CallExpr, args []sfVal, firstX int) sfVal {
	if call.Ellipsis.IsValid() {
		if len(args) == firstX+1 && args[firstX].kind == vList {
			return args[firstX]
		}
		return topVal
	}
	v := sfVal{kind: vList}
	for i := firstX; i < len(args); i++ {
		v.elems = append(v.elems, asShape(args[i]))
	}
	return v
}

// ---- Value methods ----

func (in *sfInterp) modelValueMethod(call *ast.CallExpr, fn *types.Func, recv sfVal, args []sfVal) ([]sfVal, bool) {
	m := asShape(recv)
	switch fn.Name() {
	case "Data", "Detach":
		return one(matVal(m.rows, m.cols)), true
	case "Shape":
		return []sfVal{intVal(m.rows), intVal(m.cols)}, true
	}
	return nil, false
}
